import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from vinr import cli, csg, geometry, metrics, network
from vinr.csg import ModelSource
from vinr.extraction import check_watertight
from vinr.geometry import ScalarGrid
from vinr.synthetic import Sphere, icosphere
from vinr.training import TrainConfig

from test_network import MALFORMED_HEADERS, header_models, write_mutated_model

FAST_FIT = [
    "--epochs", "400",
    "--lr", "1e-3",
    "--layers", "4",
    "--width", "32",
    "--skip", "2",
]


TINY_FIT = ["--epochs", "3", "--layers", "2", "--width", "8", "--skip", "1"]


def run(argv):
    return cli.main([str(a) for a in argv])


class TestSample:
    def test_shape_sampling(self, tmp_path):
        out = tmp_path / "pts.xyz"
        assert run(["sample", "--shape", "sphere:0.5", "--count", "100", "--out", out]) == 0
        cloud = geometry.load_point_cloud(out)
        assert len(cloud) == 100
        assert np.abs(np.linalg.norm(cloud.points, axis=1) - 0.5).max() < 1e-9

    def test_heldout_split(self, tmp_path):
        out = tmp_path / "pts.xyz"
        held = tmp_path / "held.xyz"
        rc = run(
            ["sample", "--shape", "sphere", "--count", "80", "--heldout", "20",
             "--out", out, "--heldout-out", held]
        )
        assert rc == 0
        assert len(geometry.load_point_cloud(out)) == 80
        assert len(geometry.load_point_cloud(held)) == 20

    def test_heldout_out_needs_heldout(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["sample", "--shape", "sphere:0.5", "--count", "10", "--heldout-out", "h.xyz", "--out", "p.xyz"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--heldout-out" in err and "--heldout " in err
        assert not any(tmp_path.iterdir())

    def test_heldout_default_name(self, tmp_path):
        out = tmp_path / "pts.xyz"
        assert run(["sample", "--shape", "sphere", "--count", "10", "--heldout", "5", "--out", out]) == 0
        assert (tmp_path / "pts_heldout.xyz").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        run(["sample", "--shape", "torus:0.6,0.2", "--count", "50", "--seed", "3", "--out", a])
        run(["sample", "--shape", "torus:0.6,0.2", "--count", "50", "--seed", "3", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_mesh_source(self, tmp_path):
        mesh_path = tmp_path / "s.obj"
        run(["fixtures", "--shape", "sphere:0.5", "--subdiv", "2", "--out-mesh", mesh_path])
        out = tmp_path / "pts.xyz"
        assert run(["sample", "--mesh", mesh_path, "--count", "60", "--out", out]) == 0
        cloud = geometry.load_point_cloud(out)
        assert np.abs(np.linalg.norm(cloud.points, axis=1) - 0.5).max() < 0.02

    def test_bad_shape_errors(self, tmp_path):
        rc = run(["sample", "--shape", "pyramid", "--count", "10", "--out", tmp_path / "x.xyz"])
        assert rc == 1

    @pytest.mark.parametrize(
        "spec", ["sphere:abc", "torus:0.6,x", "capsule:0,0,-1,0,0,1,", "sphere:nan", "torus:inf,0.1"]
    )
    def test_non_numeric_shape_field(self, tmp_path, capsys, spec):
        rc = run(["sample", "--shape", spec, "--count", "3", "--out", tmp_path / "x.xyz"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: shape spec {spec!r} has a non-numeric field; accepted forms: sphere[:r")
        assert "torus:R,r" in err
        assert not (tmp_path / "x.xyz").exists()


@pytest.fixture(scope="module")
def fitted_sphere(tmp_path_factory):
    """One small fitted model shared by the fit/extract/eval tests."""
    d = tmp_path_factory.mktemp("fit")
    pts = d / "pts.xyz"
    held = d / "held.xyz"
    model = d / "model.inr"
    report = d / "trace.csv"
    assert run(
        ["sample", "--shape", "sphere:0.5", "--count", "400", "--heldout", "100",
         "--out", pts, "--heldout-out", held]
    ) == 0
    assert run(["fit", "--points", pts, "--out", model, "--report", report, *FAST_FIT]) == 0
    return dict(points=pts, heldout=held, model=model, report=report, dir=d)


class TestFit:
    def test_model_written(self, fitted_sphere):
        m = network.load_model(fitted_sphere["model"])
        assert m.arch.output_channels == 1
        assert m.transform is not None

    def test_report_rows(self, fitted_sphere):
        lines = fitted_sphere["report"].read_text().splitlines()
        assert lines[1] == "epoch,total,data,eik,nesting"
        assert len(lines) == 2 + 400

    def test_deterministic(self, fitted_sphere, tmp_path):
        out2 = tmp_path / "model2.inr"
        assert run(["fit", "--points", fitted_sphere["points"], "--out", out2, *FAST_FIT]) == 0
        assert out2.read_bytes() == fitted_sphere["model"].read_bytes()

    def test_nested_fit_channels(self, tmp_path):
        inner = tmp_path / "inner.xyz"
        outer = tmp_path / "outer.xyz"
        run(["sample", "--shape", "sphere:0.4", "--count", "150", "--out", inner])
        run(["sample", "--shape", "sphere:0.8", "--count", "150", "--out", outer])
        model = tmp_path / "nested.inr"
        rc = run(
            ["fit", "--points", inner, "--points", outer, "--out", model,
             "--channel-names", "lumen", "wall",
             "--epochs", "50", "--lr", "1e-3", "--layers", "3", "--width", "16", "--skip", "2"]
        )
        assert rc == 0
        m = network.load_model(model)
        assert m.arch.output_channels == 2
        assert m.channel_names == ["lumen", "wall"]

    def test_channel_name_count_must_match_clouds(self, tmp_path, capsys):
        pts = tmp_path / "p.xyz"
        run(["sample", "--shape", "sphere", "--count", "30", "--out", pts])
        model = tmp_path / "m.inr"
        rc = run(["fit", "--points", pts, "--channel-names", "a", "b", "--out", model, *TINY_FIT])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: got 2 channel names for 1 point clouds")
        assert not model.exists()

    def test_negative_nesting_penalty_rejected(self, tmp_path, capsys):
        pts = tmp_path / "p.xyz"
        run(["sample", "--shape", "sphere", "--count", "30", "--out", pts])
        model = tmp_path / "m.inr"
        rc = run(["fit", "--points", pts, "--points", pts, "--nesting-penalty", "-1",
                  "--out", model, *TINY_FIT])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: nesting_penalty must be non-negative")
        assert not model.exists()


class TestExtractAndEval:
    def test_extract_from_model(self, fitted_sphere, tmp_path):
        out = tmp_path / "mesh.obj"
        rc = run(
            ["extract", "--model", fitted_sphere["model"], "--dims", "64",
             "--bbox", "-0.8 -0.8 -0.8 0.8 0.8 0.8", "--out", out]
        )
        assert rc == 0
        mesh = geometry.load_mesh(out)
        assert check_watertight(mesh).closed
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert abs(np.median(r) - 0.5) < 0.05

    def test_extract_channel_out_of_range(self, fitted_sphere, tmp_path, capsys):
        rc = run(
            ["extract", "--model", fitted_sphere["model"], "--channel", "3", "--dims", "8",
             "--bbox", "-1 -1 -1 1 1 1", "--out", tmp_path / "m.obj"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: channel 3 out of range")

    @pytest.mark.parametrize("field, value", MALFORMED_HEADERS)
    def test_corrupt_model_is_a_one_line_error(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.inr"
        write_mutated_model(header_models()[0], bad, field, value)
        for argv in (
            ["extract", "--model", bad, "--dims", "8", "--bbox", "-1 -1 -1 1 1 1", "--out", tmp_path / "m.obj"],
            ["eval", "--model", bad, "--ref-shape", "sphere:0.5", "--dsc-dims", "8"],
        ):
            assert run(argv) == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_corrupt_model_prints_no_traceback(self, tmp_path):
        bad = tmp_path / "bad.inr"
        write_mutated_model(header_models()[0], bad, (), [1, 2])
        argv = ["extract", "--model", bad, "--dims", "8", "--bbox", "-1 -1 -1 1 1 1", "--out", tmp_path / "m.obj"]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}  # the vinr under test
        proc = subprocess.run([sys.executable, "-m", "vinr.cli", *map(str, argv)], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {bad}: ") and "Traceback" not in proc.stderr

    def test_extract_requires_bbox_for_model(self, fitted_sphere, tmp_path):
        rc = run(["extract", "--model", fitted_sphere["model"], "--out", tmp_path / "m.obj"])
        assert rc == 2

    def test_extract_from_grid(self, fitted_sphere, tmp_path):
        from vinr.csg import evaluate_on_grid

        grid_path = tmp_path / "field.sdfgrid"
        g = evaluate_on_grid(Sphere(radius=0.5), (32, 32, 32), -np.ones(3), np.ones(3))
        geometry.write_grid(g, grid_path)
        out = tmp_path / "mesh.obj"
        assert run(["extract", "--grid", grid_path, "--out", out]) == 0
        mesh = geometry.load_mesh(out)
        assert np.abs(Sphere(radius=0.5).value(mesh.vertices)).max() < 0.01

    @pytest.mark.parametrize("iso", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["model", "grid"])
    def test_non_finite_iso_is_named(self, fitted_sphere, tmp_path, capsys, source, iso):
        if source == "grid":
            grid = tmp_path / "field.sdfgrid"
            geometry.write_grid(ScalarGrid((4, 4, 4), -np.ones(3), np.ones(3), np.zeros((4, 4, 4))), grid)
            flags = ["--grid", grid]
        else:
            flags = ["--model", fitted_sphere["model"], "--dims", "8", "--bbox", "-1 -1 -1 1 1 1"]
        out = tmp_path / "mesh.obj"
        assert run(["extract", *flags, f"--iso={iso}", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: iso level must be finite, got {iso}\n"
        assert not out.exists()

    @pytest.mark.parametrize("heldout", [False, True], ids=["dice", "dice-asd"])
    def test_eval_ref_mesh_box_is_the_padded_mesh_box(self, fitted_sphere, tmp_path, capsys, heldout):
        mesh_path = tmp_path / "ref.obj"
        assert run(["fixtures", "--shape", "sphere:0.5", "--subdiv", "2", "--out-mesh", mesh_path]) == 0
        lo, hi = metrics.padded_bbox(*geometry.load_mesh(mesh_path).bbox(), 0.1)
        flags = ["eval", "--model", fitted_sphere["model"], "--ref-mesh", mesh_path, "--dsc-dims", "20"]
        if heldout:
            flags += ["--heldout", fitted_sphere["heldout"], "--asd-dims", "20"]
        outputs = []
        for box in ([], ["--bbox", " ".join(repr(float(v)) for v in (*lo, *hi))]):
            assert run([*flags, *box]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        dsc, asd, _ = outputs[0].splitlines()[1].split(",")
        assert float(dsc) > 0.8
        assert (asd != "") == heldout

    def test_eval_output_format(self, fitted_sphere, capsys):
        rc = run(
            ["eval", "--model", fitted_sphere["model"], "--ref-shape", "sphere:0.5",
             "--heldout", fitted_sphere["heldout"], "--dsc-dims", "48", "--asd-dims", "48"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "dsc,asd,nesting_fraction"
        dsc, asd, nesting = lines[1].split(",")
        assert float(dsc) > 0.9
        assert float(asd) < 0.05
        assert nesting == ""  # single channel, nothing to check

    def test_eval_nested_ref_shape_errors(self, fitted_sphere, capsys):
        rc = run(["eval", "--model", fitted_sphere["model"], "--ref-shape", "nested"])
        assert rc == 1
        assert "unknown shape spec 'nested'" in capsys.readouterr().err

    def test_eval_report_file(self, fitted_sphere, tmp_path):
        rep = tmp_path / "metrics.txt"
        rc = run(
            ["eval", "--model", fitted_sphere["model"], "--ref-shape", "sphere:0.5",
             "--dsc-dims", "32", "--report", rep]
        )
        assert rc == 0
        text = rep.read_text()
        assert text.startswith("dsc = ")


@pytest.fixture(scope="module")
def nested_spheres(tmp_path_factory):
    """A two-channel fit of spheres of radius 0.3 and 0.6, and held-out
    points of the outer one."""
    d = tmp_path_factory.mktemp("nested")
    run(["sample", "--shape", "sphere:0.3", "--count", "150", "--out", d / "inner.xyz"])
    run(["sample", "--shape", "sphere:0.6", "--count", "150", "--heldout", "60",
         "--out", d / "outer.xyz", "--heldout-out", d / "held.xyz"])
    assert run(["fit", "--points", d / "inner.xyz", "--points", d / "outer.xyz", "--out", d / "n.inr",
                "--epochs", "150", "--lr", "1e-3", "--layers", "3", "--width", "16", "--skip", "2"]) == 0
    return d


class TestEvalChannel:
    @pytest.mark.parametrize("asd_dims", [24, 20], ids=["one-band", "two-grids"])
    def test_asd_scores_the_requested_channel(self, nested_spheres, tmp_path, asd_dims):
        d = nested_spheres
        model = network.load_model(d / "n.inr")
        held = geometry.load_point_cloud(d / "held.xyz")
        lo, hi = metrics.padded_bbox(*Sphere(radius=0.6).bbox(), 0.1)
        scores = {}
        for channel in (0, 1):
            rep = tmp_path / f"c{channel}.txt"
            assert run(["eval", "--model", d / "n.inr", "--ref-shape", "sphere:0.6", "--heldout", d / "held.xyz",
                        "--channel", channel, "--dsc-dims", 24, "--asd-dims", asd_dims, "--report", rep]) == 0
            scores[channel] = dict(line.split(" = ") for line in rep.read_text().splitlines())
            source = ModelSource(model, channel)
            dims = (asd_dims,) * 3
            assert float(scores[channel]["asd"]) == metrics.average_surface_distance(source, held, dims, lo, hi)
            assert float(scores[channel]["dsc"]) == metrics.dice(source, Sphere(radius=0.6), (24,) * 3, lo, hi)
        assert scores[0]["asd"] != scores[1]["asd"]


class TestBlend:
    def test_blend_two_models(self, tmp_path):
        small = ["--epochs", "300", "--lr", "1e-3", "--layers", "3", "--width", "24", "--skip", "2"]
        models = []
        for i, spec in enumerate(["sphere:0.5,-0.3,0,0", "sphere:0.5,0.3,0,0"]):
            pts = tmp_path / f"p{i}.xyz"
            mdl = tmp_path / f"m{i}.inr"
            run(["sample", "--shape", spec, "--count", "300", "--out", pts])
            assert run(["fit", "--points", pts, "--out", mdl, *small]) == 0
            models.append(mdl)
        out_mesh = tmp_path / "blend.obj"
        out_grid = tmp_path / "blend.sdfgrid"
        rc = run(
            ["blend", "--models", *models, "--dims", "48", "--k", "0.1",
             "--bbox", "-1 -0.7 -0.7 1 0.7 0.7",
             "--out-mesh", out_mesh, "--out-grid", out_grid]
        )
        assert rc == 0
        mesh = geometry.load_mesh(out_mesh)
        assert check_watertight(mesh).closed
        # the union spans both sphere centers
        assert mesh.vertices[:, 0].min() < -0.6 and mesh.vertices[:, 0].max() > 0.6
        g = geometry.read_grid(out_grid)
        assert g.dims == (48, 48, 48)

    @pytest.mark.parametrize("spec", [["--k", "0.1"], ["--k", "1.6"], ["--variant", "quilez", "--k", "0.3"], ["--k", "0"]])
    def test_mesh_alone_takes_the_band_and_equals_the_grid_mesh(self, fitted_sphere, tmp_path, monkeypatch, spec):
        m = network.load_model(fitted_sphere["model"])
        m.transform = geometry.DomainTransform(m.transform.scale, m.transform.center + [0.3, 0.1, 0.0])
        network.save_model(m, tmp_path / "shifted.inr")
        blend = ["blend", "--models", fitted_sphere["model"], tmp_path / "shifted.inr", *spec,
                 "--dims", "41", "--bbox", "-1 -1 -1 1.3 1.1 1"]
        dense = []
        evaluate_on_grid = csg.evaluate_on_grid
        monkeypatch.setattr(csg, "evaluate_on_grid", lambda *a: dense.append(a[1]) or evaluate_on_grid(*a))
        assert run([*blend, "--out-mesh", tmp_path / "band.obj"]) == 0
        assert dense == []
        assert run([*blend, "--out-grid", tmp_path / "g.sdfg"]) == 0
        assert dense == [(41, 41, 41)]
        assert run(["extract", "--grid", tmp_path / "g.sdfg", "--out", tmp_path / "dense.obj"]) == 0
        assert b"\nf " in (tmp_path / "band.obj").read_bytes()
        assert (tmp_path / "band.obj").read_bytes() == (tmp_path / "dense.obj").read_bytes()

    def test_blend_needs_two(self, tmp_path, fitted_sphere):
        rc = run(
            ["blend", "--models", fitted_sphere["model"],
             "--bbox", "-1 -1 -1 1 1 1", "--out-mesh", tmp_path / "m.obj"]
        )
        assert rc == 2

    def test_blend_needs_an_output(self, fitted_sphere):
        rc = run(
            ["blend", "--models", fitted_sphere["model"], fitted_sphere["model"],
             "--dims", "8", "--bbox", "-1 -1 -1 1 1 1"]
        )
        assert rc == 2

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_is_named(self, fitted_sphere, tmp_path, capsys, k):
        out = [tmp_path / "b.sdfg", tmp_path / "b.obj"]
        rc = run(["blend", "--models", fitted_sphere["model"], fitted_sphere["model"], "--k", k, "--dims", "8",
                  "--bbox", "-1 -1 -1 1 1 1", "--out-grid", out[0], "--out-mesh", out[1]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: smoothing parameter k must be finite and non-negative, got {k}\n"
        assert not any(p.exists() for p in out)

    def test_outputs_checked_before_models_load(self, tmp_path, capsys):
        missing = [tmp_path / "missing1.inr", tmp_path / "missing2.inr"]
        assert run(["blend", "--models", *missing, "--bbox", "-1 -1 -1 1 1 1"]) == 2
        assert "nothing to write" in capsys.readouterr().err


class TestSweep:
    def test_small_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run(
            ["sweep", "--shape", "sphere:0.5", "--counts", "60,120", "--repeats", "2",
             "--dsc-dims", "24", "--out", out,
             "--epochs", "120", "--lr", "1e-3", "--layers", "3", "--width", "16", "--skip", "2"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "count,repeat,dsc,asd,seconds"
        data = [l for l in lines[2:] if ",median," not in l and ",iqr," not in l]
        assert len(data) == 4
        # summary rows per count
        assert sum(",median," in l for l in lines) == 2
        assert sum(",iqr," in l for l in lines) == 2
        for row in data:
            dsc = float(row.split(",")[2])
            assert 0.0 <= dsc <= 1.0

    def test_parallel_jobs_match_serial(self, tmp_path):
        def columns(jobs):
            out = tmp_path / f"sweep{jobs}.csv"
            rc = run(
                ["sweep", "--shape", "sphere:0.5", "--counts", "40,60", "--repeats", "2",
                 "--dsc-dims", "16", "--jobs", jobs, "--out", out,
                 "--epochs", "20", "--lr", "1e-3", "--layers", "2", "--width", "8", "--skip", "1"]
            )
            assert rc == 0
            # count,repeat,dsc,asd; the seconds column differs run to run
            return [l.split(",")[:4] for l in out.read_text().splitlines()[1:]]

        serial = columns(1)
        assert len(serial) == 1 + 4 + 2 * 2
        assert columns(2) == serial

    def test_mesh_sweep_rows_are_finite(self, tmp_path):
        mesh_path = tmp_path / "ref.obj"
        assert run(["fixtures", "--shape", "sphere:0.5", "--subdiv", "1", "--out-mesh", mesh_path]) == 0
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--mesh", mesh_path, "--counts", "20,30", "--repeats", "1",
                    "--dsc-dims", "8", "--out", out, *TINY_FIT]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        assert [r[:2] for r in rows] == [["20", "0"], ["30", "0"], ["20", "median"], ["20", "iqr"],
                                         ["30", "median"], ["30", "iqr"]]
        assert np.isfinite([float(v) for r in rows for v in r[2:4]]).all()

    def test_failed_jobs_exit_nonzero(self, tmp_path, capsys):
        # `nested` is no shape spec, so every job fails to build its reference
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["sweep", "--shape", "nested", "--counts", "20", "--repeats", "2",
                      "--dsc-dims", "8", "--out", out, *TINY_FIT])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: 2 of 2 sweep jobs failed"
        # summary rows of a count whose every job failed are nan, silently
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = out.read_text().splitlines()
        rows = lines[2:4]  # every row is still written
        assert [r.split(",")[:3] for r in rows] == [["20", "0", "nan"], ["20", "1", "nan"]]
        assert lines[4:] == ["20,median,nan,nan,", "20,iqr,nan,nan,"]


class TestFixtures:
    def test_sphere_mesh(self, tmp_path):
        out = tmp_path / "s.obj"
        assert run(["fixtures", "--shape", "sphere:0.4", "--subdiv", "1", "--out-mesh", out]) == 0
        mesh = geometry.load_mesh(out)
        np.testing.assert_allclose(np.linalg.norm(mesh.vertices, axis=1), 0.4, atol=1e-6)

    def test_capsule_mesh(self, tmp_path):
        out = tmp_path / "c.obj"
        rc = run(["fixtures", "--shape", "capsule:0,0,-0.5,0,0,0.5,0.2", "--out-mesh", out])
        assert rc == 0
        assert check_watertight(geometry.load_mesh(out)).closed

    def test_points_output(self, tmp_path, capsys):
        # fixtures writes meshes only; point clouds come from sample
        out = tmp_path / "p.xyz"
        with pytest.raises(SystemExit) as e:
            run(["fixtures", "--shape", "torus:0.6,0.2", "--out-mesh", tmp_path / "t.obj", "--out-points", out])
        assert e.value.code == 2
        assert "unrecognized arguments: --out-points" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        assert run(["sample", "--shape", "torus:0.6,0.2", "--count", "77", "--out", out]) == 0
        assert len(geometry.load_point_cloud(out)) == 77

    def test_no_output_requested(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(["fixtures", "--shape", "sphere"])
        assert e.value.code == 2
        assert "--out-mesh" in capsys.readouterr().err


class TestConfigFile:
    def test_config_sets_defaults(self, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("epochs = 7\nlr = 1e-3\nlayers = 3\nwidth = 16\nskip = 2\n")
        pts = tmp_path / "p.xyz"
        run(["sample", "--shape", "sphere", "--count", "50", "--out", pts])
        model = tmp_path / "m.inr"
        report = tmp_path / "r.csv"
        rc = run(["--config", cfg, "fit", "--points", pts, "--out", model, "--report", report])
        assert rc == 0
        assert len(report.read_text().splitlines()) == 2 + 7

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("epochs = 7\nlayers = 3\nwidth = 16\nskip = 2\n")
        pts = tmp_path / "p.xyz"
        run(["sample", "--shape", "sphere", "--count", "50", "--out", pts])
        report = tmp_path / "r.csv"
        rc = run(
            ["--config", cfg, "fit", "--points", pts, "--out", tmp_path / "m.inr",
             "--report", report, "--epochs", "3"]
        )
        assert rc == 0
        assert len(report.read_text().splitlines()) == 2 + 3

    def test_equals_form_is_honoured(self, tmp_path):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("epochs = 4\n")
        pts = tmp_path / "p.xyz"
        run(["sample", "--shape", "sphere", "--count", "30", "--out", pts])
        report = tmp_path / "r.csv"
        rc = run(
            [f"--config={cfg}", "fit", "--points", pts, "--out", tmp_path / "m.inr",
             "--report", report, "--layers", "2", "--width", "8", "--skip", "1"]
        )
        assert rc == 0
        assert len(report.read_text().splitlines()) == 2 + 4

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs 7\n")
        assert run(["--config", cfg, "fixtures", "--shape", "sphere"]) == 1
        assert f"error: {cfg}:1: expected key = value" in capsys.readouterr().err

    NOT_UTF8 = "'utf-8' codec can't decode byte 0xa1 in position 3: invalid start byte"

    @pytest.mark.parametrize("name, argv", [
        ("bad.xyz", lambda bad, out: ["fit", "--points", bad, "--out", out, *TINY_FIT]),
        ("bad.obj", lambda bad, out: ["sample", "--mesh", bad, "--count", "3", "--out", out]),
        ("bad.cfg", lambda bad, out: ["--config", bad, "sample", "--shape", "sphere", "--count", "3", "--out", out]),
    ])
    def test_text_readers_name_the_file_and_line(self, tmp_path, capsys, name, argv):
        # line 2 holds the byte 0xa1, which no UTF-8 text starts a character with
        bad, out = tmp_path / name, tmp_path / "out"
        bad.write_bytes(b"# a comment\r\n1 2\xa1 3\n")
        assert run(argv(bad, out)) == 1
        assert capsys.readouterr().err == f"error: {bad}:2: {self.NOT_UTF8}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, argv", [
        ("bom.xyz", lambda f, out: ["fit", "--points", f, "--out", out, *TINY_FIT]),
        ("bom.obj", lambda f, out: ["sample", "--mesh", f, "--count", "3", "--out", out]),
        ("bom.cfg", lambda f, out: ["--config", f, "sample", "--shape", "sphere", "--count", "3", "--out", out]),
    ])
    def test_byte_order_mark_is_dropped(self, tmp_path, name, argv):
        # a BOM before a '#' comment on line 1 must leave it a comment
        f, out = tmp_path / name, tmp_path / "out"
        if name == "bom.obj":
            geometry.save_mesh(icosphere(0), f)
        else:
            f.write_text({"bom.xyz": "0 0 0\n1 0 0\n0 1 0\n0 0 1\n", "bom.cfg": "seed = 3\n"}[name])
        f.write_bytes(b"\xef\xbb\xbf# comment\n" + f.read_bytes())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv(f, out)) == 0
        assert not caught  # the .obj reader warns of records it ignores
        if name == "bom.cfg":
            run(["sample", "--shape", "sphere", "--count", "3", "--seed", "3", "--out", tmp_path / "seed3"])
            assert out.read_bytes() == (tmp_path / "seed3").read_bytes()

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["--config", tmp_path / "absent.cfg", "fixtures", "--shape", "sphere"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_trailing_config_flag(self):
        with pytest.raises(SystemExit) as e:
            run(["fixtures", "--shape", "sphere", "--config"])
        assert e.value.code == 2

    def test_abbreviated_config_flag_is_rejected(self, tmp_path):
        # an abbreviation the config look-up would not see must not parse either
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("seed = 5\n")
        with pytest.raises(SystemExit) as e:
            run(["--conf", cfg, "sample", "--shape", "sphere", "--count", "5", "--out", tmp_path / "p.xyz"])
        assert e.value.code == 2

    @pytest.mark.parametrize("names", [["lumen"], ["lumen", "wall"]])
    def test_channel_names_from_config_are_split(self, tmp_path, names):
        clouds = []
        for i in range(len(names)):
            clouds += ["--points", tmp_path / f"p{i}.xyz"]
            run(["sample", "--shape", f"sphere:{0.4 + 0.3 * i}", "--count", "30", "--out", clouds[-1]])
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"channel_names = {' '.join(names)}\n")
        model = tmp_path / "m.inr"
        assert run(["--config", cfg, "fit", *clouds, "--out", model, *TINY_FIT]) == 0
        assert network.load_model(model).channel_names == names

    def test_points_in_config_is_a_usage_error(self, tmp_path, capsys):
        # an `append` flag would add --points to the file's list, not replace it
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("points = a.xyz\n")
        with pytest.raises(SystemExit) as e:
            run(["--config", cfg, "fit", "--points", "b.xyz", "--out", tmp_path / "m.inr"])
        assert e.value.code == 2
        assert "config key 'points'" in capsys.readouterr().err

    def test_bad_config_value_is_a_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = many\n")
        with pytest.raises(SystemExit) as e:
            run(["--config", cfg, "fit", "--points", "p.xyz", "--out", "m.inr"])
        assert e.value.code == 2


# every fit flag: (flag, config key, TrainConfig field, config value, field
# value it gives, flag value, field value it gives)
FIT_FLAGS = [
    ("--epochs", "epochs", "epochs", "7", 7, "3", 3),
    ("--lr", "lr", "learning_rate", "1e-3", 1e-3, "0.5", 0.5),
    ("--lambda", "lam", "lam", "0.25", 0.25, "0", 0.0),
    ("--layers", "layers", "hidden_layers", "4", 4, "2", 2),
    ("--width", "width", "hidden_width", "32", 32, "8", 8),
    ("--skip", "skip", "skip_layer", "2", 2, "1", 1),
    ("--activation", "activation", "activation", "softplus", "softplus", "relu", "relu"),
    ("--init", "init", "init_scheme", "standard", "standard", "sphere", "sphere"),
    ("--batch", "batch", "surface_batch_size", "128", 128, "64", 64),
    ("--seed", "seed", "seed", "5", 5, "9", 9),
    ("--half-extent", "half_extent", "half_extent", "0.8", 0.8, "0.7", 0.7),
    ("--nesting-penalty", "nesting_penalty", "nesting_penalty", "0.5", 0.5, "2", 2.0),
]

COMMAND_ARGS = {
    "fit": ["--points", "p.xyz", "--out", "m.inr"],
    "sweep": ["--shape", "sphere", "--out", "s.csv"],
}


def parsed_train_config(monkeypatch, argv, command):
    """The TrainConfig that `vinr <argv>` would run with, through `main`."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.append(cli._train_config(args)) or 0)
    assert run(argv) == 0
    return seen[0]


def test_fit_flags_cover_every_train_config_field():
    assert sorted(row[2] for row in FIT_FLAGS) == sorted(f.name for f in dataclasses.fields(TrainConfig))


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("flag,key,field,cfg_text,cfg_value,flag_text,flag_value", FIT_FLAGS)
def test_fit_flag_default_config_and_override(
    monkeypatch, tmp_path, command, flag, key, field, cfg_text, cfg_value, flag_text, flag_value
):
    cmd = [command, *COMMAND_ARGS[command]]
    assert parsed_train_config(monkeypatch, cmd, command) == TrainConfig()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {cfg_text}\n")
    from_config = parsed_train_config(monkeypatch, ["--config", cfg, *cmd], command)
    assert from_config == dataclasses.replace(TrainConfig(), **{field: cfg_value})

    from_flag = parsed_train_config(monkeypatch, ["--config", cfg, *cmd, flag, flag_text], command)
    assert getattr(from_flag, field) == flag_value


# counts the commands cannot run with, and the flag each usage error names
BAD_COUNTS = [
    (["sweep", "--shape", "sphere", "--out", "s.csv", "--repeats", "0"], "--repeats"),
    (["sweep", "--shape", "sphere", "--out", "s.csv", "--counts", ""], "--counts"),
    (["sweep", "--shape", "sphere", "--out", "s.csv", "--counts", " , "], "--counts"),
    (["sweep", "--shape", "sphere", "--out", "s.csv", "--counts", "20,-5"], "--counts"),
    (["sweep", "--shape", "sphere:0.5", "--out", "s.csv", "--counts", "1,x"], "--counts"),
    (["sample", "--shape", "sphere", "--out", "p.xyz", "--count", "-3"], "--count"),
    (["sample", "--shape", "sphere", "--out", "p.xyz", "--count", "0"], "--count"),
    (["sample", "--shape", "sphere", "--out", "p.xyz", "--count", "10", "--heldout", "-2"], "--heldout"),
    (["fixtures", "--shape", "sphere", "--out-mesh", "m.obj", "--subdiv", "-1"], "--subdiv"),
    (["fixtures", "--shape", "sphere", "--out-mesh", "m.obj", "--subdiv", "two"], "--subdiv"),
    (["sweep", "--shape", "sphere", "--out", "s.csv", "--jobs", "0"], "--jobs"),
    (["sweep", "--shape", "sphere", "--out", "s.csv", "--jobs", "-4"], "--jobs"),
    (["sweep", "--shape", "sphere", "--out", "s.csv", "--dsc-dims", "1"], "--dsc-dims"),
    (["extract", "--model", "m.inr", "--bbox", "-1 -1 -1 1 1 1", "--out", "m.obj", "--dims", "1"], "--dims"),
    (["blend", "--models", "a.inr", "b.inr", "--bbox", "-1 -1 -1 1 1 1", "--out-grid", "b.sdfg", "--dims", "1"], "--dims"),
    (["eval", "--model", "m.inr", "--ref-shape", "sphere", "--dsc-dims", "1"], "--dsc-dims"),
    (["eval", "--model", "m.inr", "--ref-shape", "sphere", "--heldout", "h.xyz", "--asd-dims", "0"], "--asd-dims"),
]


@pytest.mark.parametrize("argv, flag", BAD_COUNTS, ids=[f"{a[0]} {a[-2]} {a[-1]!r}" for a, _ in BAD_COUNTS])
def test_bad_count_is_a_usage_error(monkeypatch, tmp_path, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "_counts_arg" not in err  # argparse names a type function that raises ValueError
    assert not any(tmp_path.iterdir())


# boxes the lattice commands cannot sample: a non-finite number, or an axis
# whose min is not below its max
BAD_BOXES = [
    ["extract", "--model", "m.inr", "--out", "m.obj", "--bbox", "-1 -1 -1 1 1 inf"],
    ["extract", "--model", "m.inr", "--out", "m.obj", "--bbox", "-1 -1 nan 1 1 1"],
    ["extract", "--model", "m.inr", "--out", "m.obj", "--bbox", "1 -1 -1 -1 1 1"],
    ["extract", "--model", "x.inr", "--out", "a.obj", "--bbox", "1 2 3 4 5 six"],
    ["blend", "--models", "a.inr", "b.inr", "--out-grid", "b.sdfg", "--bbox", "-1 -1 -1 1 1 -inf"],
    ["blend", "--models", "a.inr", "b.inr", "--out-mesh", "b.obj", "--bbox", "-1 0.5 -1 1 0.5 1"],
    ["eval", "--model", "m.inr", "--ref-shape", "sphere", "--bbox", "-1 -1 -1 1e309 1 1"],
    ["eval", "--model", "m.inr", "--ref-shape", "sphere", "--bbox", "-1 -1 2 1 1 1"],
]


@pytest.mark.parametrize("argv", BAD_BOXES, ids=[f"{a[0]} {a[-1]!r}" for a in BAD_BOXES])
def test_bad_bbox_is_a_usage_error(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        run(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "argument --bbox: " in err
    assert "_bbox_arg" not in err  # argparse names a type function that raises ValueError
    assert not any(tmp_path.iterdir())
