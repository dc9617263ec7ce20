import io
import json
import shlex
from pathlib import Path

import pytest

from halfspace.avd import AvdIndex, query_hyperbolic
from halfspace.cli import main
from halfspace.hyperbolic import normalize_and_embed
from halfspace.oracle import nn_bruteforce
from halfspace.pointfile import PointFileError, read_points, write_points
from halfspace.quadtree import build_quadtree
from halfspace.spanner import build_spanner
from halfspace.tiling import CellId, HPoint


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- point files ---------------------------------------------------------------


def test_pointfile_roundtrip_continuous():
    pts = [HPoint((0.25,), 1.5), HPoint((0.5,), 0.75)]
    buf = io.StringIO()
    write_points(buf, pts)
    buf.seek(0)
    dim, kind, back = read_points(buf)
    assert (dim, kind) == (2, "continuous")
    assert back == pts


def test_pointfile_roundtrip_discrete():
    pts = [CellId(-2, (1,)), CellId(-3, (3,))]
    buf = io.StringIO()
    write_points(buf, pts)
    buf.seek(0)
    dim, kind, back = read_points(buf)
    assert (dim, kind) == (2, "discrete")
    assert back == pts


def test_pointfile_rejects_garbage():
    with pytest.raises(PointFileError):
        read_points(io.StringIO(""))
    with pytest.raises(PointFileError):
        read_points(io.StringIO('{"dim": 2, "kind": "nope"}\n'))
    with pytest.raises(PointFileError):
        read_points(io.StringIO('{"dim": 2, "kind": "continuous"}\n{"x": [0.1], "z": -1}\n'))
    with pytest.raises(PointFileError):
        read_points(io.StringIO('{"dim": 2, "kind": "continuous"}\n'))


@pytest.mark.parametrize(
    "line",
    ['{"x": [NaN], "z": 1.0}', '{"x": [Infinity], "z": 1.0}', '{"x": [0.3], "z": Infinity}', '{"x": [0.3], "z": NaN}'],
)
def test_build_rejects_nonfinite_points(tmp_path, capsys, line):
    pts = tmp_path / "pts.jsonl"
    pts.write_text('{"dim": 2, "kind": "continuous"}\n{"x": [0.25], "z": 0.5}\n' + line + "\n")
    code, out, err = run(["build", "--what", "avd", "--in", str(pts)], capsys)
    assert code == 2
    assert "line 3" in json.loads(err)["error"]


def build_exit(tmp_path, capsys, text):
    """Exit code and error of ``halfspace build --what avd`` on a point file."""
    pts = tmp_path / "pts.jsonl"
    pts.write_text(text)
    code, _out, err = run(["build", "--what", "avd", "--in", str(pts)], capsys)
    return code, json.loads(err)["error"] if err else None


DISCRETE_2 = '{"dim": 2, "kind": "discrete"}\n{"coords": [1], "level": -2}\n'


# Each of these inputs escaped as OverflowError (a traceback, exit 1) or
# was silently truncated to an integer.


def test_build_level_1e400_exits_2(tmp_path, capsys):
    code, error = build_exit(tmp_path, capsys, DISCRETE_2 + '{"coords": [1], "level": 1e400}\n')
    assert code == 2 and "line 3: level must be a JSON integer" in error


def test_build_coords_1e400_exits_2(tmp_path, capsys):
    code, error = build_exit(tmp_path, capsys, DISCRETE_2 + '{"coords": [1e400], "level": -2}\n')
    assert code == 2 and "line 3: each coordinate must be a JSON integer" in error


def test_build_header_dim_1e400_exits_2(tmp_path, capsys):
    code, error = build_exit(tmp_path, capsys, '{"dim": 1e400, "kind": "discrete"}\n{"coords": [1], "level": -2}\n')
    assert code == 2 and "line 1: dim must be a JSON integer" in error


def test_build_x_1_and_400_zeros_exits_2(tmp_path, capsys):
    text = '{"dim": 2, "kind": "continuous"}\n{"x": [0.25], "z": 0.5}\n{"x": [1' + "0" * 400 + '], "z": 0.5}\n'
    code, error = build_exit(tmp_path, capsys, text)
    assert code == 2 and "line 3" in error


def test_build_line_of_100000_nested_arrays_exits_2(tmp_path, capsys):
    # json's RecursionError escaped (a traceback, exit 1)
    code, error = build_exit(tmp_path, capsys, DISCRETE_2 + "[" * 100000 + "\n")
    assert code == 2 and "line 3: invalid JSON" in error


def test_build_header_of_100000_nested_arrays_exits_2(tmp_path, capsys):
    code, error = build_exit(tmp_path, capsys, "[" * 100000 + "\n" + DISCRETE_2)
    assert code == 2 and "line 1: bad header: maximum recursion depth" in error


def test_build_coords_3_7_exits_2(tmp_path, capsys):
    # was read as Cell(-3;[3])
    code, error = build_exit(tmp_path, capsys, DISCRETE_2 + '{"coords": [3.7], "level": -3}\n')
    assert code == 2 and "line 3: each coordinate must be a JSON integer, got 3.7" in error


def test_build_level_minus_2_5_exits_2(tmp_path, capsys):
    # was read as level -2
    code, error = build_exit(tmp_path, capsys, DISCRETE_2 + '{"coords": [1], "level": -2.5}\n')
    assert code == 2 and "line 3: level must be a JSON integer, got -2.5" in error


@pytest.mark.parametrize("what", ["quadtree", "avd", "spanner"])
def test_build_level_minus_10_pow_30_exits_2(tmp_path, capsys, what):
    # the Z-order sort shifted by 10**30 bits: OverflowError (exit 1)
    pts = tmp_path / "pts.jsonl"
    pts.write_text(DISCRETE_2 + '{"coords": [0], "level": -%d}\n' % 10**30)
    code, out, err = run(["build", "--what", what, "--in", str(pts)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == f"Cell(-{10**30};[0]) lies below level -14284, the deepest a tree takes"


CONTINUOUS_2 = '{"dim": 2, "kind": "continuous"}\n{"x": [0.25], "z": 0.5}\n'


def test_build_x_true_z_true_exits_2(tmp_path, capsys):
    # was read as HPoint((1.0,), 1.0)
    code, error = build_exit(tmp_path, capsys, CONTINUOUS_2 + '{"x": [true], "z": true}\n')
    assert code == 2 and "line 3: each x-coordinate must be a JSON number, got True" in error


def test_build_x_string_0_25_z_string_1e_3_exits_2(tmp_path, capsys):
    # was read as HPoint((0.25,), 0.001)
    code, error = build_exit(tmp_path, capsys, CONTINUOUS_2 + '{"x": ["0.25"], "z": "1e-3"}\n')
    assert code == 2 and "line 3: each x-coordinate must be a JSON number, got '0.25'" in error


def test_pointfile_reads_json_numbers_for_x_and_z():
    text = '{"dim": 3, "kind": "continuous"}\n{"x": [0, 0.5], "z": 2}\n'
    assert read_points(io.StringIO(text)) == (3, "continuous", [HPoint((0.0, 0.5), 2.0)])
    for bad in ('{"x": [0.25], "z": true}', '{"x": [0.25], "z": "1e-3"}', '{"x": "0.25", "z": 1.0}', '{"x": {"0.25": 1}, "z": 1.0}', '{"x": [0.25], "z": null}'):
        with pytest.raises(PointFileError, match="line 2"):
            read_points(io.StringIO('{"dim": 2, "kind": "continuous"}\n' + bad + "\n"))


def test_pointfile_reads_integer_levels_and_coords():
    text = '{"dim": 3, "kind": "discrete"}\n{"coords": [0, 3], "level": -2}\n{"coords": [0, 0], "level": 0}\n'
    assert read_points(io.StringIO(text)) == (3, "discrete", [CellId(-2, (0, 3)), CellId(0, (0, 0))])
    for bad in ('{"coords": [true], "level": -2}', '{"coords": [1], "level": false}', '{"coords": "1", "level": -2}', '{"coords": [1], "level": "-2"}'):
        with pytest.raises(PointFileError, match="line 2"):
            read_points(io.StringIO('{"dim": 2, "kind": "discrete"}\n' + bad + "\n"))


# -- subcommands ------------------------------------------------------------------


def test_gen_rejects_zero_points(tmp_path, capsys):
    code, out, err = run(["gen", "--dim", "2", "--n", "0"], capsys)
    assert code == 2
    assert json.loads(err)["error"]


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(["gen", "--dim", "2", "--n", "30", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen", "--dim", "2", "--n", "30", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_env_seed(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    monkeypatch.setenv("HALFSPACE_SEED", "77")
    assert main(["gen", "--n", "10", "--out", str(a)]) == 0
    assert main(["gen", "--n", "10", "--seed", "77", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def gen_error(args, capsys):
    """Run ``halfspace gen --seed 0`` with ``args`` and return the JSON
    error; it must exit 2 and write no points."""
    code, out, err = run(["gen", "--seed", "0", *args], capsys)
    assert code == 2 and out == ""
    return json.loads(err)["error"]


# Each of these min levels failed inside random.randrange, naming neither
# the flag nor the value, or let stratified heights underflow to 0.0.


def test_gen_margin_cells_min_level_3_exits_2(capsys):
    error = gen_error(["--n", "5", "--kind", "discrete", "--min-level", "3"], capsys)
    assert error == "min_level 3 is above -1, the highest level margin cells take"


def test_gen_margin_cells_min_level_0_exits_2(capsys):
    error = gen_error(["--n", "5", "--kind", "discrete", "--min-level", "0"], capsys)
    assert error == "min_level 0 is above -1, the highest level margin cells take"


def test_gen_cells_without_margin_min_level_1_exits_2(capsys):
    error = gen_error(["--n", "5", "--kind", "discrete", "--no-margin", "--min-level", "1"], capsys)
    assert error == "min_level 1 is above 0, the highest level cells of the root take"


def test_gen_stratified_min_level_2_exits_2(capsys):
    error = gen_error(["--n", "3", "--mode", "stratified", "--min-level", "2"], capsys)
    assert error == "min_level 2 is above 0, the highest level stratified heights take"


@pytest.mark.parametrize("n", ["3", "200"])
def test_gen_stratified_min_level_minus_2000_exits_2(capsys, n):
    # --n 200 drew a height of 0.0 (exit 2 blaming z); --n 3 wrote a file
    error = gen_error(["--n", n, "--kind", "continuous", "--mode", "stratified", "--min-level", "-2000"], capsys)
    assert error == "min_level -2000 is below -1074, the lowest level stratified heights take"


def test_gen_stratified_min_level_minus_1074(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    assert main(["gen", "--n", "200", "--seed", "0", "--mode", "stratified", "--min-level", "-1074", "--out", str(pts)]) == 0
    with open(pts) as fp:
        points = read_points(fp)[2]
    assert min(p.z for p in points) > 0.0


# An integer past Python's 4,300-digit string-conversion limit made json
# raise a plain ValueError, which named neither the line, the index nor
# the point.


def test_build_coords_of_6021_digits_on_line_2_exits_2(tmp_path, capsys):
    text = '{"dim": 2, "kind": "discrete"}\n{"coords": [' + "3" * 6021 + '], "level": -20001}\n'
    code, error = build_exit(tmp_path, capsys, text)
    assert code == 2 and error.startswith("line 2: Exceeds the limit (4300 digits)")


def test_build_header_dim_of_5000_digits_exits_2(tmp_path, capsys):
    text = '{"dim": ' + "2" * 5000 + ', "kind": "discrete"}\n{"coords": [1], "level": -2}\n'
    code, error = build_exit(tmp_path, capsys, text)
    assert code == 2 and error.startswith("line 1: bad header: Exceeds the limit (4300 digits)")


def test_query_index_highest_index_of_5000_digits_exits_2(tmp_path, capsys):
    index, data = three_cell_index(tmp_path)
    text = json.dumps(data)
    assert text.count('"highest_index": 0,') == 1
    index.write_text(text.replace('"highest_index": 0,', '"highest_index": ' + "1" * 5000 + ","))
    code, out, err = run(["query", "--index", str(index), "--at=-6,24"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("index is no JSON: Exceeds the limit (4300 digits)")


def test_gen_discrete_min_level_minus_20000_exits_2(capsys):
    error = gen_error(["--n", "20", "--kind", "discrete", "--min-level", "-20000"], capsys)
    assert error.startswith("point 9 cannot be written: Exceeds the limit (4300 digits)")


def test_write_points_cell_at_level_minus_20001():
    with pytest.raises(PointFileError, match=r"^point 1 cannot be written: Exceeds the limit \(4300 digits\)"):
        write_points(io.StringIO(), [CellId(-2, (1,)), CellId(-20001, (3 << 19998,))])


def test_build_artifacts_roundtrip(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    assert main(["gen", "--dim", "2", "--n", "24", "--kind", "discrete", "--seed", "4", "--out", str(pts)]) == 0
    for what in ("quadtree", "avd"):
        out = tmp_path / f"{what}.json"
        assert main(["build", "--what", what, "--in", str(pts), "--out", str(out)]) == 0
        blob = out.read_text()
        data = json.loads(blob)
        # load + re-serialize is the identity
        if what == "quadtree":
            from halfspace.quadtree import QuadTree

            assert json.dumps(QuadTree.from_dict(data).to_dict(), sort_keys=True) + "\n" == blob
        else:
            from halfspace.avd import AvdIndex

            assert AvdIndex.from_json(blob).to_json() + "\n" == blob


def test_build_spanner_edge_list_format(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    assert main(["gen", "--dim", "2", "--n", "10", "--kind", "discrete", "--seed", "3", "--out", str(pts)]) == 0
    out = tmp_path / "edges.txt"
    assert main(["build", "--what", "spanner", "--in", str(pts), "--format", "edges", "--out", str(out)]) == 0
    for line in out.read_text().strip().splitlines():
        u, v, w = line.split()
        int(u), int(v), float(w)


def test_build_embedding_and_hyperbolic_spanner(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    assert main(["gen", "--dim", "2", "--n", "16", "--kind", "continuous", "--seed", "4", "--out", str(pts)]) == 0
    for what in ("embedding", "hyperbolic-spanner"):
        out = tmp_path / f"{what}.json"
        assert main(["build", "--what", what, "--in", str(pts), "--out", str(out), "--k", "2"]) == 0
        assert json.loads(out.read_text())["edges"]


def test_build_hyperbolic_spanner_height_5e_324(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    pts.write_text('{"dim": 2, "kind": "continuous"}\n{"x": [0.3], "z": 1.0}\n{"x": [0.3], "z": 5e-324}\n')
    out = tmp_path / "spanner.json"
    assert main(["build", "--what", "hyperbolic-spanner", "--in", str(pts), "--out", str(out), "--k", "2"]) == 0
    assert json.loads(out.read_text())["edges"]


def test_build_avd_and_spanner_x_minus_1e308_and_1e308(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    pts.write_text('{"dim": 2, "kind": "continuous"}\n{"x": [-1e308], "z": 1.0}\n{"x": [1e308], "z": 1.0}\n')
    for what in ("avd", "hyperbolic-spanner"):
        out = tmp_path / f"{what}.json"
        code, _, err = run(["build", "--what", what, "--in", str(pts), "--out", str(out), "--k", "2"], capsys)
        assert code == 0, err
        assert json.loads(out.read_text())


def test_build_x_2251799813685249_z_5e_324_exits_2(tmp_path, capsys):
    # the normalized point lost its 1/4 offset and build_avd blamed the
    # input's margin; normalize now names the point and the lost offset
    pts = tmp_path / "pts.jsonl"
    pts.write_text('{"dim": 2, "kind": "continuous"}\n{"x": [2251799813685249.0], "z": 5e-324}\n')
    for what in ("avd", "hyperbolic-spanner"):
        code, _, err = run(["build", "--what", what, "--in", str(pts), "--k", "2"], capsys)
        assert code == 2
        error = json.loads(err)["error"]
        assert "point 0" in error and "loses the 1/4 offset" in error


def test_build_rejects_kind_mismatch(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    assert main(["gen", "--dim", "2", "--n", "8", "--kind", "discrete", "--seed", "1", "--out", str(pts)]) == 0
    code, out, err = run(["build", "--what", "hyperbolic-spanner", "--in", str(pts)], capsys)
    assert code == 2
    assert "continuous" in json.loads(err)["error"]


def test_query_subcommand(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    index = tmp_path / "avd.json"
    assert main(["gen", "--dim", "2", "--n", "12", "--kind", "continuous", "--seed", "2", "--out", str(pts)]) == 0
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    code, out, err = run(["query", "--index", str(index), "--at", "0.3,1.0", "--at", "2.0,0.2"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 2
    assert all(0 <= r["neighbor_index"] < 12 for r in results)
    code, out, err = run(["query", "--index", str(index)], capsys)
    assert code == 2


def test_query_discrete_index(tmp_path, capsys):
    pts = tmp_path / "cells.jsonl"
    index = tmp_path / "avd.json"
    assert main(["gen", "--dim", "2", "--n", "10", "--kind", "discrete", "--seed", "6", "--out", str(pts)]) == 0
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    # negative levels need the = form, else argparse reads them as flags
    code, out, err = run(["query", "--index", str(index), "--at=-3,2", "--at", "0,7"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results[0]["query"] == {"level": -3, "coords": [2]}
    assert all(0 <= r["neighbor_index"] < 10 for r in results)


def test_query_height_1e_30_underflowing_when_moved_exits_2(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    index = tmp_path / "avd.json"
    with open(pts, "w") as fp:
        write_points(fp, [HPoint((0.0,), 1.0), HPoint((1e300,), 1.0)])
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    code, out, err = run(["query", "--index", str(index), "--at", "0.0,1e-30"], capsys)
    assert code == 2
    assert "query height 1e-30 underflows" in json.loads(err)["error"]


def test_query_at_0_9_123_0_0_01_on_d2_index_exits_2(tmp_path, capsys):
    # the extra coordinate was dropped and the query answered as for
    # --at "0.9,0.01" (exit 0)
    pts = tmp_path / "pts.jsonl"
    index = tmp_path / "avd.json"
    with open(pts, "w") as fp:
        write_points(fp, [HPoint((0.1,), 1.0), HPoint((0.9,), 0.01)])
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    code, out, err = run(["query", "--index", str(index), "--at", "0.9,123.0,0.01"], capsys)
    assert code == 2
    assert "dimension 3, the index 2" in json.loads(err)["error"]
    code, out, err = run(["query", "--index", str(index), "--at", "0.9,0.01"], capsys)
    assert code == 0 and json.loads(out)["results"][0]["neighbor_index"] == 1


def test_query_index_one_annotation_short_exits_2(tmp_path, capsys):
    # --at=-7,64 lands in the last node's region, which used to load
    # without reps and end the query in a TypeError (exit 1)
    pts = tmp_path / "cells.jsonl"
    index = tmp_path / "avd.json"
    assert main(["gen", "--dim", "2", "--n", "10", "--kind", "discrete", "--seed", "6", "--out", str(pts)]) == 0
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    data = json.loads(index.read_text())
    assert data["nodes"][-1]["cell"] == [-7, [64]]
    data["annotations"].pop()
    index.write_text(json.dumps(data))
    code, out, err = run(["query", "--index", str(index), "--at=-7,64"], capsys)
    assert code == 2
    assert "annotations" in json.loads(err)["error"]


def three_cell_index(tmp_path):
    """The index of Cell(-2;[1]), Cell(-3;[3]) and Cell(-4;[5]), as JSON data."""
    pts = tmp_path / "cells.jsonl"
    with open(pts, "w") as fp:
        write_points(fp, [CellId(-2, (1,)), CellId(-3, (3,)), CellId(-4, (5,))])
    index = tmp_path / "avd.json"
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    return index, json.loads(index.read_text())


def test_query_index_point_1_coords_3_0_exits_2(tmp_path, capsys):
    # the float coordinate loaded, and --at=-6,24 ended in a TypeError
    # (exit 1) when d2 shifted it
    index, data = three_cell_index(tmp_path)
    assert data["points"][1] == [-3, [3]]
    data["points"][1] = [-3, [3.0]]
    index.write_text(json.dumps(data))
    code, out, err = run(["query", "--index", str(index), "--at=-6,24"], capsys)
    assert code == 2
    assert "point 1's cell [-3, [3.0]]" in json.loads(err)["error"]


def test_query_index_leaf_node_3_relabeled_compressed_exits_2(tmp_path, capsys):
    # the childless "compressed" node loaded, and --at=-6,8 ended in an
    # IndexError (exit 1) when the descent read its child
    index, data = three_cell_index(tmp_path)
    assert data["nodes"][3] == {"cell": [-3, [1]], "kind": "leaf", "parent": 2, "stored": None}
    data["nodes"][3]["kind"] = "compressed"
    index.write_text(json.dumps(data))
    code, out, err = run(["query", "--index", str(index), "--at=-6,8"], capsys)
    assert code == 2
    assert "compressed node 3" in json.loads(err)["error"]


def test_verify_report_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--dim", "2", "--n", "24", "--seed", "5", "--out", str(a)]) == 0
    assert main(["verify", "--dim", "2", "--n", "24", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["ok"] is True
    assert all(sec["ok"] for sec in report["sections"].values())


def test_render_figures(tmp_path, capsys):
    for fig in ("tiling", "paths", "spanner", "avd"):
        out = tmp_path / f"{fig}.svg"
        code, _o, err = run(["render", "--figure", fig, "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        body = out.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
        stats = json.loads(err)
        assert stats["figure"] == fig
        if fig == "spanner":
            assert stats["inputs"] == 6
            assert stats["steiner"] == 6
            assert stats["distance_2_5"] == 6


def test_bench_table(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code, _o, err = run(["bench", "--dim", "2", "--sizes", "16,32", "--seed", "1", "--out", str(out)], capsys)
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["n"] for r in rows] == [16, 32]
    assert all(r["tree_nodes"] > 0 for r in rows)


def two_point_index(tmp_path):
    """The index of the continuous points (0.1, 1.0) and (0.9, 0.01), as
    JSON data."""
    pts = tmp_path / "pts.jsonl"
    with open(pts, "w") as fp:
        write_points(fp, [HPoint((0.1,), 1.0), HPoint((0.9,), 0.01)])
    index = tmp_path / "avd.json"
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    return index, json.loads(index.read_text())


def query_error(index, data, at, capsys):
    """Write ``data`` to the index file, query it at ``at`` and return the
    JSON error; the query must exit 2."""
    index.write_text(json.dumps(data))
    code, out, err = run(["query", "--index", str(index), f"--at={at}"], capsys)
    assert code == 2 and out == ""
    return json.loads(err)["error"]


def test_query_index_transform_scale_x_exits_2(tmp_path, capsys):
    # loaded, and the query ended in a TypeError (exit 1) when it scaled z
    index, data = two_point_index(tmp_path)
    data["transform"]["scale"] = "x"
    assert "transform scale 'x'" in query_error(index, data, "0.3,0.5", capsys)


def test_query_index_transform_shift_a_exits_2(tmp_path, capsys):
    # loaded, and the query ended in a TypeError (exit 1) when it shifted x
    index, data = two_point_index(tmp_path)
    data["transform"]["shift"] = ["a"]
    assert "transform shift ('a',)" in query_error(index, data, "0.3,0.5", capsys)


def test_query_index_transform_shift_two_numbers_on_d2_index_exits_2(tmp_path, capsys):
    index, data = two_point_index(tmp_path)
    data["transform"]["shift"] = [0.25, 0.25]
    assert "transform shift [0.25, 0.25] is no list of 1 numbers" in query_error(index, data, "0.3,0.5", capsys)


def test_query_index_transform_5_exits_2(tmp_path, capsys):
    # the loader ended in a TypeError (exit 1) reading t["scale"]
    index, data = two_point_index(tmp_path)
    data["transform"] = 5
    assert "transform is no JSON object: 5" in query_error(index, data, "0.3,0.5", capsys)


def test_query_index_source_kind_foo_exits_2(tmp_path, capsys):
    # loaded silently, and --at was then parsed as a cell
    index, data = two_point_index(tmp_path)
    data["source_kind"] = "foo"
    error = query_error(index, data, "0.3,0.5", capsys)
    assert "source_kind 'foo' is not 'continuous'" in error


def test_query_index_source_kind_continuous_without_transform_exits_2(tmp_path, capsys):
    index, data = three_cell_index(tmp_path)
    data["source_kind"] = "continuous"
    error = query_error(index, data, "-6,24", capsys)
    assert "source_kind 'continuous' is not 'discrete'" in error


def test_query_index_node_7_exits_2(tmp_path, capsys):
    # the loader ended in a TypeError (exit 1) reading spec["cell"]
    index, data = three_cell_index(tmp_path)
    data["nodes"][3] = 7
    assert "node 3 is no JSON object: 7" in query_error(index, data, "-6,24", capsys)


def test_query_index_annotation_list_1_exits_2(tmp_path, capsys):
    # the loader ended in a TypeError (exit 1) reading extra["h"]
    index, data = three_cell_index(tmp_path)
    data["annotations"][2] = [1]
    assert "annotation 2 is no JSON object: [1]" in query_error(index, data, "-6,24", capsys)


def test_query_index_top_level_array_exits_2(tmp_path, capsys):
    # the loader ended in a TypeError (exit 1) reading data["nodes"]
    index, data = three_cell_index(tmp_path)
    assert "index is no JSON object: [" in query_error(index, [data], "-6,24", capsys)


def test_query_index_node_3_without_kind_exits_2(tmp_path, capsys):
    index, data = three_cell_index(tmp_path)
    del data["nodes"][3]["kind"]
    assert "node 3 has no key 'kind'" in query_error(index, data, "-6,24", capsys)


def test_query_index_without_transform_key_exits_2(tmp_path, capsys):
    index, data = three_cell_index(tmp_path)
    del data["transform"]
    assert "index has no key 'transform'" in query_error(index, data, "-6,24", capsys)


def test_query_index_highest_index_1_with_root_h_0_exits_2(tmp_path, capsys):
    # loaded, and --at=1,0 above the root answered 1 where the built
    # index answers 0
    index, data = three_cell_index(tmp_path)
    assert data["annotations"][0]["h"] == data["highest_index"] == 0
    data["highest_index"] = 1
    assert "highest_index 1 is not node 0's h 0" in query_error(index, data, "1,0", capsys)


def test_query_index_dim_10_pow_30_exits_2(tmp_path, capsys):
    # the loader built the root cell of dimension 10**30 before any
    # cell had shown that many coordinates: OverflowError (exit 1)
    index, data = three_cell_index(tmp_path)
    data["dim"] = 10**30
    assert "node 0's cell [0, [0]] is no [level, " in query_error(index, data, "-6,24", capsys)


def test_query_index_dim_10_pow_30_without_points_exits_2(tmp_path, capsys):
    index, data = three_cell_index(tmp_path)
    data["dim"] = 10**30
    data["points"] = []
    assert "node 0's cell [0, [0]] is no [level, " in query_error(index, data, "-6,24", capsys)


def test_query_index_not_json_exits_2(tmp_path, capsys):
    # exited 2 with json's bare "Expecting value: ..." naming no index
    index = tmp_path / "avd.json"
    index.write_text("not json")
    code, out, err = run(["query", "--index", str(index), "--at=-6,24"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("index is no JSON: Expecting value")


def test_query_index_of_100000_nested_arrays_exits_2(tmp_path, capsys):
    # json's RecursionError escaped (a traceback, exit 1)
    index = tmp_path / "avd.json"
    index.write_text("[" * 100000)
    code, out, err = run(["query", "--index", str(index), "--at=-6,24"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith("index is no JSON: maximum recursion depth")


# -- query files, missing files, the dimension bound -----------------------------


def query_file(tmp_path, capsys, index_kind, query_kind, *at):
    """Query the AVD of 20 generated ``index_kind`` points with a file of
    5 generated ``query_kind`` points and the ``--at`` specs ``at``.
    Returns the exit code, the output, the error and both point files."""
    pts, queries, index = tmp_path / "pts.jsonl", tmp_path / "queries.jsonl", tmp_path / "avd.json"
    assert main(["gen", "--dim", "2", "--n", "20", "--kind", index_kind, "--seed", "3", "--out", str(pts)]) == 0
    assert main(["gen", "--dim", "2", "--n", "5", "--kind", query_kind, "--seed", "4", "--out", str(queries)]) == 0
    assert main(["build", "--what", "avd", "--in", str(pts), "--out", str(index)]) == 0
    code, out, err = run(["query", "--index", str(index), "--queries", str(queries), *[f"--at={a}" for a in at]], capsys)
    return code, out, err, pts, queries


def test_query_queries_file_of_continuous_points(tmp_path, capsys):
    code, out, _err, pts, queries = query_file(tmp_path, capsys, "continuous", "continuous")
    assert code == 0
    with open(queries) as fp:
        asked = read_points(fp)[2]
    ix = AvdIndex.from_json((tmp_path / "avd.json").read_text())
    results = json.loads(out)["results"]
    assert [r["query"] for r in results] == [{"x": list(q.x), "z": q.z} for q in asked]
    assert [r["neighbor_index"] for r in results] == [query_hyperbolic(ix, q) for q in asked]


def test_query_queries_file_of_discrete_cells(tmp_path, capsys):
    code, out, _err, pts, queries = query_file(tmp_path, capsys, "discrete", "discrete", "-3,2")
    assert code == 0
    with open(pts) as fp:
        cells = read_points(fp)[2]
    with open(queries) as fp:
        asked = read_points(fp)[2] + [CellId(-3, (2,))]
    results = json.loads(out)["results"]
    assert [r["query"] for r in results] == [{"level": q.level, "coords": list(q.coords)} for q in asked]
    assert [r["neighbor_index"] for r in results] == [nn_bruteforce(cells, q, "d2") for q in asked]


def test_query_discrete_queries_file_on_continuous_index_exits_2(tmp_path, capsys):
    # the cells were answered in the index's normalized frame (exit 0)
    code, out, err, _pts, queries = query_file(tmp_path, capsys, "continuous", "discrete")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error == f"query file {queries} holds discrete points, but the index was built from continuous points"


def test_query_continuous_queries_file_on_discrete_index_exits_2(tmp_path, capsys):
    # exited 2, but with query_hyperbolic's "no transform stored"
    code, out, err, _pts, queries = query_file(tmp_path, capsys, "discrete", "continuous")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error == f"query file {queries} holds continuous points, but the index was built from discrete points"


def test_build_missing_in_and_query_missing_index_exit_2_naming_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    code, out, err = run(["build", "--what", "avd", "--in", str(missing)], capsys)
    assert code == 2 and out == "" and str(missing) in json.loads(err)["error"]
    missing = tmp_path / "missing.json"
    code, out, err = run(["query", "--index", str(missing), "--at", "0.3,1.0"], capsys)
    assert code == 2 and out == "" and str(missing) in json.loads(err)["error"]


DISCRETE_40 = '{"dim": 40, "kind": "discrete"}\n' + "".join(
    json.dumps({"coords": [k] * 39, "level": -2}) + "\n" for k in (1, 2)
)
DIM_40_ERROR = "dimension 40 is above 8, the highest a tree takes"


@pytest.mark.parametrize("what", ["quadtree", "spanner", "avd"])
def test_build_dim_40_exits_2(tmp_path, capsys, what):
    # a two-cell D = 40 file ran out of memory (MemoryError, exit 1)
    # listing the 2^39 children of an ordinary node
    pts = tmp_path / "cells.jsonl"
    pts.write_text(DISCRETE_40)
    code, out, err = run(["build", "--what", what, "--in", str(pts)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == DIM_40_ERROR


@pytest.mark.parametrize("what", ["embedding", "hyperbolic-spanner", "avd"])
def test_build_dim_40_continuous_exits_2(tmp_path, capsys, what):
    pts = tmp_path / "pts.jsonl"
    pts.write_text(
        '{"dim": 40, "kind": "continuous"}\n'
        + json.dumps({"x": [0.25] * 39, "z": 0.5}) + "\n"
        + json.dumps({"x": [0.5] * 39, "z": 0.125}) + "\n"
    )
    code, out, err = run(["build", "--what", what, "--in", str(pts)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == DIM_40_ERROR


def test_verify_dim_40_exits_2(capsys):
    code, out, err = run(["verify", "--dim", "40", "--n", "8"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == DIM_40_ERROR


def test_bench_dim_40_exits_2(capsys):
    code, out, err = run(["bench", "--dim", "40", "--sizes", "2"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == DIM_40_ERROR


# -- boundary checks of the point files and the builds ---------------------------


def test_read_points_two_x_coordinates_in_d2_file():
    text = '{"dim": 2, "kind": "continuous"}\n{"x": [0.25, 0.5], "z": 1.0}\n'
    with pytest.raises(PointFileError, match="line 2: expected 1 x-coordinates"):
        read_points(io.StringIO(text))


def test_read_points_two_coords_in_d2_file():
    text = '{"dim": 2, "kind": "discrete"}\n{"coords": [1, 1], "level": -2}\n'
    with pytest.raises(PointFileError, match="line 2: expected 1 coordinates"):
        read_points(io.StringIO(text))


def test_write_points_cell_after_hpoint():
    with pytest.raises(PointFileError, match="mixed point kinds in one file"):
        write_points(io.StringIO(), [HPoint((0.25,), 1.0), CellId(-2, (1,))])


def test_write_points_hpoint_after_cell():
    with pytest.raises(PointFileError, match="mixed point kinds in one file"):
        write_points(io.StringIO(), [CellId(-2, (1,)), HPoint((0.25,), 1.0)])


def test_write_points_d3_cell_after_d2_cell():
    with pytest.raises(PointFileError, match=r"has dimension 3, header says 2"):
        write_points(io.StringIO(), [CellId(-2, (1,)), CellId(-2, (1, 1))])


@pytest.mark.parametrize("what", ["quadtree", "spanner"])
def test_build_of_continuous_points(tmp_path, capsys, what):
    pts = tmp_path / "pts.jsonl"
    assert main(["gen", "--dim", "2", "--n", "12", "--kind", "continuous", "--seed", "5", "--out", str(pts)]) == 0
    code, out, _err = run(["build", "--what", what, "--in", str(pts)], capsys)
    assert code == 0
    with open(pts) as fp:
        cells = normalize_and_embed(read_points(fp)[2])[2]
    built = build_quadtree(cells) if what == "quadtree" else build_spanner(cells)
    assert json.loads(out) == json.loads(json.dumps(built.to_dict()))


# -- the README's command line ----------------------------------------------------


def test_readme_command_line_block_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("halfspace ")]
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
