import io
import json

import pytest

from halfspace.cli import main
from halfspace.pointfile import PointFileError, read_points, write_points
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


def test_build_artifacts_roundtrip(tmp_path, capsys):
    pts = tmp_path / "pts.jsonl"
    assert main(["gen", "--dim", "2", "--n", "24", "--kind", "discrete", "--seed", "4", "--out", str(pts)]) == 0
    for what in ("quadtree", "spanner", "avd"):
        out = tmp_path / f"{what}.json"
        assert main(["build", "--what", what, "--in", str(pts), "--out", str(out)]) == 0
        blob = out.read_text()
        data = json.loads(blob)
        # load + re-serialize is the identity
        if what == "quadtree":
            from halfspace.quadtree import QuadTree

            assert json.dumps(QuadTree.from_dict(data).to_dict(), sort_keys=True) + "\n" == blob
        elif what == "spanner":
            from halfspace.spanner import SpannerGraph

            assert json.dumps(SpannerGraph.from_dict(data).to_dict(), sort_keys=True) + "\n" == blob
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
