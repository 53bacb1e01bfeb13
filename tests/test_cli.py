"""Command-line interface: records, exit codes, file emission."""

import hashlib
import io
import os
import random
import re
import sys
import threading

import pytest

from lapreal import cli
from lapreal.cli import GRAPH_NAMES, build_parser, main
from lapreal.graphs import FOUR_VERTEX_KINDS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEigs:
    def test_unit_star(self, capsys):
        code, out, _ = run(capsys, "eigs", "--graph", "star", "--weights", "1,1,1")
        assert code == 0
        assert "spectrum=[0,1,1,4]" in out

    def test_zero_eigenvalues_print_without_sign(self, capsys):
        # used to print spectrum=[0,-0,-0,2]
        code, out, _ = run(capsys, "eigs", "--graph", "star", "--weights", "0,0,1")
        assert code == 0
        assert "spectrum=[0,0,0,2]" in out

    def test_unit_k4(self, capsys):
        code, out, _ = run(capsys, "eigs", "--graph", "k4", "--weights", "1,1,1,1,1,1")
        assert code == 0
        assert "spectrum=[0,4,4,4]" in out

    def test_kn_order_inferred(self, capsys):
        code, out, _ = run(
            capsys, "eigs", "--graph", "kn", "--weights", ",".join(["1"] * 10)
        )
        assert code == 0
        assert "spectrum=[0,5,5,5,5]" in out

    def test_wrong_weight_count(self, capsys):
        code, _, err = run(capsys, "eigs", "--graph", "star", "--weights", "1,1")
        assert code == 2
        assert "error:" in err

    def test_malformed_number(self, capsys):
        code, _, err = run(capsys, "eigs", "--graph", "star", "--weights", "1,x,1")
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize("scale", ["e-160", "", "e160"])
    def test_k4_zero_eigenvalue_at_any_scale(self, capsys, scale):
        weights = ",".join(f"{k}{scale}" for k in range(1, 7))
        code, out, _ = run(capsys, "eigs", "--graph", "k4", "--weights", weights)
        assert code == 0
        assert "spectrum=[0," in out

    def test_k4_spectrum_at_1e160(self, capsys):
        # used to print the vertex degrees [6e+160,1e+161,1.2e+161,1.4e+161]
        code, out, _ = run(
            capsys, "eigs", "--graph", "k4", "--weights", "1e160,2e160,3e160,4e160,5e160,6e160"
        )
        assert code == 0
        assert "spectrum=[0,7.69461815e+160,1.48763738e+161,1.94290081e+161]" in out

    @pytest.mark.parametrize(
        "graph, weights, spectrum",
        [
            # used to end in an OverflowError from the discriminant band
            ("cycle", "1e40,2e40,3e40,4e40", "[0,3.24559429e+40,5.45221889e+40,1.13021868e+41]"),
            # used to end in a ZeroDivisionError in the trigonometric roots
            ("star", "1e-120,2e-120,3e-120", "[0,1.19439717e-120,2.38677016e-120,8.41883268e-120]"),
        ],
    )
    def test_extreme_weight_scales(self, capsys, graph, weights, spectrum):
        code, out, _ = run(capsys, "eigs", "--graph", graph, "--weights", weights)
        assert code == 0
        assert f"spectrum={spectrum}" in out

    def test_spectrum_beyond_float_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eigs", "--graph", "star", "--weights", "1e308,1e308,1e308")
        assert code == 2
        assert "overflows the float range" in err

    @pytest.mark.parametrize(
        "graph, weights, vertex",
        [("kn", "1e308,1e308,1e308", 0), ("k4", "0,0,1e308,0,1,1e308", 3)],
    )
    def test_complete_degree_overflow_names_the_vertex(self, capsys, graph, weights, vertex):
        # exited 2 with "non-finite entry inf in matrix 0 at [0, 0]", an entry
        # the user never gave
        code, out, err = run(capsys, "eigs", "--graph", graph, "--weights", weights)
        assert code == 2
        assert out == ""
        assert f"error: degree of vertex {vertex} overflows the float range\n" in err


class TestCheck:
    def test_cycle_reject_certificate(self, capsys):
        code, out, _ = run(capsys, "check", "--graph", "cycle", "--triple", "3,3,2")
        assert code == 0
        assert "realizable=false" in out
        assert 'certificate="max < half-sum (3 < 4)"' in out

    def test_star_accept(self, capsys):
        code, out, _ = run(capsys, "check", "--graph", "star", "--triple", "1,1,4")
        assert code == 0
        assert "realizable=true" in out


class TestInvert:
    def test_golden_kite(self, capsys):
        code, out, _ = run(capsys, "invert", "--graph", "kite", "--triple", "4,3,1")
        assert code == 0
        assert "realizable=true" in out
        assert "weights=[1.16666667,0.666666667,0.666666667,1.5]" in out

    def test_zero_weights_print_without_sign(self, capsys):
        # used to print weights=[-0,-0,0.5]
        code, out, _ = run(capsys, "invert", "--graph", "star", "--triple", "1,0,0")
        assert code == 0
        assert "weights=[0,0,0.5]" in out

    def test_not_realizable_exit_code(self, capsys):
        code, out, _ = run(capsys, "invert", "--graph", "star", "--triple", "1,1,1")
        assert code == 1
        assert "realizable=false" in out

    def test_star_cusp_not_realizable(self, capsys):
        # used to print realizable=true with residual 0.00917 and exit 0,
        # although check on the same triple says realizable=false
        triple = "0.1666961228748206,0.6674384912086027,0.16586538591657674"
        code, out, _ = run(capsys, "invert", "--graph", "star", "--triple", triple)
        assert code == 1
        assert "realizable=false" in out
        _, checked, _ = run(capsys, "check", "--graph", "star", "--triple", triple)
        assert checked.splitlines()[1:] == out.splitlines()[1:]

    @pytest.mark.parametrize(
        "graph, triple",
        [
            ("cycle", "3.9510652226952483,3.9510652226952483,8.443311892391831"),
            ("cycle", "4.729679033262876,4.729679033262876,9.742566032064998"),
            ("kite", "4.4572209118711354,4.4572209118711354,1.0348407595126403"),
        ],
    )
    def test_tie_residual_reads_the_weights_error(self, capsys, graph, triple):
        # printed residual=1.83713858e-07, 1.97686249e-07 and 1.33280039e-07
        # for correct weights: the residual solved the weights' cubic again
        code, out, _ = run(capsys, "invert", "--graph", graph, "--triple", triple)
        assert code == 0
        residual = float(re.search(r"^residual=(\S+)$", out, re.M).group(1))
        assert residual <= 1e-8 * sum(map(float, triple.split(",")))

    def test_complete_any_tuple(self, capsys):
        code, out, _ = run(capsys, "invert", "--graph", "kn", "--triple", "5,4,3,2")
        assert code == 0
        assert "realizable=true" in out

    def test_complete_at_1e160(self, capsys):
        # used to print realizable=true with residual=2.33333333e+160
        code, out, _ = run(capsys, "invert", "--graph", "kn", "--triple", "6e160,3e160,2e160")
        assert code == 0
        assert "realizable=true" in out
        residual = float(out.split("residual=")[1])
        assert residual <= 1e-8 * 11e160

    def test_negative_triple_is_usage_error(self, capsys):
        code, _, err = run(capsys, "invert", "--graph", "star", "--triple", "1,-1,1")
        assert code == 2
        assert "error:" in err


class TestRegion:
    def test_emits_files(self, capsys, tmp_path):
        csv = tmp_path / "g.csv"
        svg = tmp_path / "g.svg"
        code, out, _ = run(
            capsys,
            "region", "--resolution", "10", "--out", str(csv), "--svg", str(svg),
        )
        assert code == 0
        assert "cells=66" in out
        assert csv.exists() and svg.exists()

    def test_bad_resolution(self, capsys):
        code, _, err = run(capsys, "region", "--resolution", "1")
        assert code == 2

    def test_records_and_golden_bytes(self, capsys, tmp_path):
        csv = tmp_path / "g.csv"
        svg = tmp_path / "g.svg"
        code, out, _ = run(
            capsys,
            "region", "--resolution", "12", "--out", str(csv), "--svg", str(svg),
        )
        assert code == 0
        assert out.splitlines() == [
            "resolution=12",
            "normalization=1",
            "cells=91",
            f"csv={csv}",
            f"svg={svg}",
        ]
        # sha256 of the files written at commit a8c3cda, before the emitters
        # were vectorized
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "387bb055ddf67e6b1975339259fbf7bb8b0cc3b0a26cc5fac7a455492762c3e0"
        )
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "af524260df792bf73dad28d37c1eadc0c46b91d531e04a67b00fce1aada4bacb"
        )

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_normalization(self, capsys, tmp_path, bad):
        csv = tmp_path / "g.csv"
        code, _, err = run(
            capsys,
            "region", "--resolution", "4", "--normalization", bad, "--out", str(csv),
        )
        assert code == 2
        assert "normalization" in err
        assert not csv.exists()

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("bad", [".", "sub/g"], ids=["directory", "missing-directory"])
    @pytest.mark.parametrize("good_flag, bad_flag", [("--out", "--svg"), ("--svg", "--out")])
    def test_bad_output_changes_no_file(
        self, capsys, tmp_path, monkeypatch, existing, bad, good_flag, bad_flag
    ):
        # a good --out and a failing --svg used to leave a complete g.csv
        # behind, or overwrite the one that was there, and still exit 2
        monkeypatch.chdir(tmp_path)
        good = "g.csv" if good_flag == "--out" else "g.svg"
        if bad != ".":
            bad += ".csv" if bad_flag == "--out" else ".svg"
        if existing:
            (tmp_path / good).write_bytes(b"kept\n")
        argv = ("region", "--resolution", "6", f"{good_flag}={good}", f"{bad_flag}={bad}")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and f"'{bad}'" in err.splitlines()[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ([good] if existing else [])
        if existing:
            assert (tmp_path / good).read_bytes() == b"kept\n"

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("svg", ["g", "./g"])
    def test_one_file_for_both_outputs_is_refused(self, capsys, tmp_path, monkeypatch, existing, svg):
        # used to exit 0 and print csv=g and svg=g, leaving the SVG alone in g
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / "g").write_bytes(b"kept\n")
        code, out, err = run(capsys, "region", "--resolution", "3", "--out", "g", "--svg", svg)
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: 'g' and '{svg}' name the same file"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["g"] if existing else [])
        if existing:
            assert (tmp_path / "g").read_bytes() == b"kept\n"

    def test_one_device_takes_both_outputs(self, capsys):
        code, out, _ = run(capsys, "region", "--resolution", "3", "--out", "/dev/null", "--svg", "/dev/null")
        assert code == 0
        assert "csv=/dev/null" in out and "svg=/dev/null" in out

    def test_fifo_output_gets_the_whole_csv(self, capsys, tmp_path):
        # a FIFO is neither truncated nor cut; its reader sees one end of file
        fifo = tmp_path / "g.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        argv = ("region", "--resolution", "40", f"--out={fifo}", f"--svg={tmp_path / 'g.svg'}")
        code, _, err = run(capsys, *argv)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert (code, err) == (0, "")
        fresh = tmp_path / "fresh.csv"
        assert run(capsys, "region", "--resolution", "40", f"--out={fresh}")[0] == 0
        assert received == [fresh.read_bytes()]

    def test_overwrites_longer_files(self, capsys, tmp_path):
        fresh = {name: tmp_path / f"fresh.{name}" for name in ("csv", "svg")}
        old = {name: tmp_path / f"old.{name}" for name in ("csv", "svg")}
        for path in old.values():
            path.write_bytes(b"x" * 10**6)
        for paths in (fresh, old):
            argv = ("region", "--resolution", "5", f"--out={paths['csv']}", f"--svg={paths['svg']}")
            assert run(capsys, *argv)[0] == 0
        for name in ("csv", "svg"):
            assert old[name].read_bytes() == fresh[name].read_bytes()


class TestFrac:
    def test_negative_seed_is_named(self, capsys):
        # used to print numpy's "expected non-negative integer"
        code, out, err = run(capsys, "frac", "--graph", "star", "--samples", "50", "--seed=-1")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: seed must be a non-negative integer, got -1"

    def test_k4_exact(self, capsys):
        code, out, _ = run(
            capsys, "frac", "--graph", "k4", "--samples", "1000", "--seed", "1"
        )
        assert code == 0
        assert "fraction=1" in out
        assert "generator=numpy-PCG64" in out

    def test_cycle_rough(self, capsys):
        code, out, _ = run(
            capsys, "frac", "--graph", "cycle", "--samples", "20000", "--seed", "2"
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("fraction="))
        assert abs(float(line.split("=")[1]) - 0.75) < 0.02


class TestSuspend:
    def test_k2_to_k3(self, capsys):
        code, out, _ = run(capsys, "suspend", "--spectrum", "0,2", "--c", "1")
        assert code == 0
        assert "spectrum=[0,3,3]" in out

    def test_non_laplacian_rejected(self, capsys):
        code, _, err = run(capsys, "suspend", "--spectrum", "1,2", "--c", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "spectrum, c",
        [
            ("-5,3", "1"),  # printed spectrum=[0,3,4]: -5 was taken as the zero eigenvalue
            ("0,1e308", "1e308"),  # printed spectrum=[0,inf,inf] with a RuntimeWarning
            ("2e-10,4e-10", "0"),  # accepted, while 2,4 was rejected
        ],
    )
    def test_not_a_laplacian_spectrum_is_a_usage_error(self, capsys, spectrum, c):
        code, out, err = run(capsys, "suspend", f"--spectrum={spectrum}", "--c", c)
        assert code == 2
        assert out == "" and "RuntimeWarning" not in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestBoundary:
    """``main`` turns a ValueError or OSError from any command's library call into exit 2."""

    CALLS = [
        ("forward_spectrum", ("eigs", "--graph", "star", "--weights", "1,1,1")),
        ("CHECKS", ("check", "--graph", "star", "--triple", "1,1,4")),
        ("INVERTERS", ("invert", "--graph", "kite", "--triple", "4,3,1")),
        ("render_region", ("region", "--resolution", "4")),
        ("estimate_region_fraction", ("frac", "--graph", "cycle", "--samples", "10", "--seed", "1")),
        ("suspend_spectrum", ("suspend", "--spectrum", "0,2", "--c", "1")),
    ]

    @pytest.mark.parametrize("error", [ValueError, OSError])
    @pytest.mark.parametrize("name, argv", CALLS, ids=[name for name, _ in CALLS])
    def test_library_error_exits_2(self, capsys, monkeypatch, error, name, argv):
        def boom(*args, **kwargs):
            raise error("boom")

        table = getattr(cli, name)
        if isinstance(table, dict):
            monkeypatch.setitem(table, argv[2], boom)
        else:
            monkeypatch.setattr(cli, name, boom)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: boom\n")

    def test_failed_print_exits_2(self, capsys, monkeypatch):
        # a ValueError raised while printing ended in a traceback
        closed = io.StringIO()
        closed.close()
        monkeypatch.setattr(sys, "stdout", closed)
        code, _, err = run(capsys, "eigs", "--graph", "star", "--weights", "1,1,1")
        assert code == 2
        assert err.startswith("error: I/O operation on closed file")


class TestParserReuse:
    ARGVS = [
        ("eigs", "--graph", "kn", "--weights", "1,2,3,4,5,6"),
        ("invert", "--graph", "kite", "--triple", "4,3,1"),
        ("eigs", "--graph", "star", "--weights", "1,1"),
        ("check", "--graph", "cycle", "--triple", "3,3,2"),
        ("invert", "--graph", "k4", "--triple", "1,2"),
        ("suspend", "--spectrum", "0,2", "--c", "1"),
    ]

    def test_repeated_calls_match_fresh_parsers(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 0]
        for _ in range(2):
            assert [run(capsys, *argv) for argv in self.ARGVS] == fresh

    def test_argparse_error_between_good_calls(self, capsys):
        good = ("invert", "--graph", "cycle", "--triple", "2,1,1")
        first = run(capsys, *good)
        with pytest.raises(SystemExit) as exc:
            main(["eigs", "--graph", "nope", "--weights", "1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *good) == first
        assert build_parser() is build_parser()


class TestNonFiniteInput:
    # each used to exit 0 with a NaN spectrum or a verdict, or end in a
    # ZeroDivisionError traceback
    @pytest.mark.parametrize(
        "argv",
        [
            ("eigs", "--graph", "star", "--weights", "nan,1,1"),
            ("eigs", "--graph", "kn", "--weights", "1,inf,1"),
            ("check", "--graph", "star", "--triple", "nan,1,1"),
            ("check", "--graph", "cycle", "--triple", "1,1,-inf"),
            ("invert", "--graph", "kite", "--triple", "inf,1,1"),
            ("invert", "--graph", "path", "--triple", "1,nan,1"),
            ("suspend", "--spectrum", "0,nan", "--c", "1"),
            ("suspend", "--spectrum", "0,2", "--c", "nan"),
        ],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "finite" in err
        assert out == ""


class TestOverflowingSum:
    # check --graph cycle printed realizable=false with an inf in the
    # certificate, and invert --graph cycle|kite ended in a ZeroDivisionError
    # traceback with exit 1
    # k4 and kn printed realizable=true, invert with residual=5.5e+307
    @pytest.mark.parametrize("command", ["check", "invert"])
    @pytest.mark.parametrize("graph", GRAPH_NAMES)
    def test_usage_error(self, capsys, command, graph):
        code, out, err = run(capsys, command, "--graph", graph, "--triple", "1.5e308,1e308,4e307")
        assert (code, out) == (2, "")
        assert "error: target eigenvalue sum overflows the float range" in err


class TestOutOfRangeTarget:
    # (command, graph) at --triple 4e100,3e100,1e100; a case's id is its place
    # here, so the cycle and kite rows, which invert now solves, keep the ids
    # of the star and path rows stable
    TARGETS = [("check", "star"), ("check", "path")] + [
        ("invert", graph) for graph in FOUR_VERTEX_KINDS
    ]

    # each ended in an OverflowError traceback, then in a usage error (exit 2)
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param((cmd, "--graph", graph, "--triple", "4e100,3e100,1e100"), id=f"argv{i}")
            for i, (cmd, graph) in enumerate(TARGETS)
            if graph in ("star", "path")
        ],
    )
    def test_verdict_of_the_unit_triple(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        unit_code, unit_out, _ = run(capsys, *argv[:-1], "4,3,1")
        assert (code, err) == (unit_code, "")
        got, want = (dict(line.split("=", 1) for line in text.splitlines()) for text in (out, unit_out))
        assert got["realizable"] == want["realizable"] == "false"
        # the same certificate, its numbers those of the triple scaled by 2**-335
        name = re.compile(r"[^\d(]*")
        assert name.match(got["certificate"])[0] == name.match(want["certificate"])[0]
        assert got["certificate"].endswith(' at scale 2**-335"')

    @pytest.mark.parametrize("graph", ["cycle", "kite"])
    def test_invert_agrees_with_check(self, capsys, graph):
        # the residual's cubic overflowed at these weights, so invert exited
        # 2 while check printed realizable=true
        triple = "4e100,3e100,1e100"
        _, checked, _ = run(capsys, "check", "--graph", graph, "--triple", triple)
        assert "realizable=true" in checked
        code, out, err = run(capsys, "invert", "--graph", graph, "--triple", triple)
        assert (code, err) == (0, "")
        records = dict(line.split("=", 1) for line in out.splitlines())
        assert records["realizable"] == "true"
        assert float(records["residual"]) <= 1e-8 * 8e100


class TestScaleFree:
    # star at 1e-60 used to say realizable=true (total**6 underflowed), both
    # inverts at 1e-150 printed realizable=true with a residual a sixth of the
    # sum, and path at 1e100 exited 2 with "overflows the float range"
    @pytest.mark.parametrize(
        "command, graph, triple, unit",
        [
            ("check", "star", "1e-60,1e-60,1e-60", "1,1,1"),
            ("invert", "star", "1e-150,2e-150,3e-150", "1,2,3"),
            ("invert", "path", "1e-150,2e-150,3e-150", "1,2,3"),
            ("check", "path", "1e100,2e100,3e100", "1,2,3"),
            ("invert", "path", "1e100,2e100,3e100", "1,2,3"),
        ],
    )
    def test_verdict_of_the_unit_triple(self, capsys, command, graph, triple, unit):
        code, out, err = run(capsys, command, "--graph", graph, "--triple", triple)
        unit_code, unit_out, _ = run(capsys, command, "--graph", graph, "--triple", unit)
        assert (code, err) == (unit_code, "")
        assert "realizable=false" in out.splitlines() and "realizable=false" in unit_out
        assert code == (1 if command == "invert" else 0)


#: sha256 of repr(cli_records()).  Written at commit 1e50ddb, when five
#: commands still re-raised their ValueError as a private usage error;
#: re-pinned once when region began to open both outputs before writing
#: either (four records with a good --out and a failing --svg no longer
#: leave a g.csv) and SamplerConfig began to name a negative seed (the five
#: frac --seed=-1 records)
CLI_DIGEST = "38f2eabf7ff0f892142f34dc200debf43e6b14bf1ec35d06dc462444cae952c0"

_EDGE_COUNTS = {"star": 3, "cycle": 4, "path": 3, "kite": 4, "k4": 6}
_SCALES = (1.0, 1.0, 1.0, 2.0**-40, 2.0**40, 1e-150, 1e150, 1e300)
_BAD = ("nan", "inf", "-inf", "-1.5", "x", "1e400", "")


def _numbers(rng, count):
    """``count`` seeded numbers as the CLI reads them: ties, zeros, scales, bad entries, wrong arity."""
    scale = rng.choice(_SCALES)
    values = [repr(rng.uniform(0.0, 5.0) * scale) for _ in range(count)]
    shape = rng.randrange(8)
    if shape == 0 and count > 1:
        values[1] = values[0]
    elif shape == 1 and count:
        values[rng.randrange(count)] = rng.choice(("0", "-0", "0.0"))
    elif shape == 2 and count:
        values[rng.randrange(count)] = rng.choice(_BAD)
    elif shape == 3:
        values = values[:-1] if rng.random() < 0.5 else values + ["1"]
    return ",".join(values)


def _cli_argvs(rng):
    for graph in GRAPH_NAMES:
        for _ in range(30):
            edges = _EDGE_COUNTS.get(graph) or rng.choice((1, 3, 6, 10, 15, 21))
            yield "eigs", "--graph", graph, "--weights=" + _numbers(rng, edges)
            triple = _numbers(rng, 3 if graph in _EDGE_COUNTS else rng.randint(1, 9))
            yield "check", "--graph", graph, "--triple=" + triple
            yield "invert", "--graph", graph, "--triple=" + triple
        for samples in ("1", "999", "1000", "1001", "4096", "0", "-3", "x"):
            yield "frac", "--graph", graph, "--samples", samples, "--seed", str(rng.randrange(10**6))
        yield "frac", "--graph", graph, "--samples", "50", "--seed=-1"
    yield "invert", "--graph", "kn", "--triple=" + _numbers(rng, 60)
    yield "invert", "--graph", "kn", "--triple="
    for _ in range(40):
        c = rng.choice(("0", "1", "2.5", "1e-300", "1e308", "nan", "inf", "-1", repr(rng.uniform(0, 3))))
        yield "suspend", "--spectrum=0," + _numbers(rng, rng.randint(0, 6)), f"--c={c}"
    yield "suspend", "--spectrum=", "--c=1"
    outputs = (None, None, "g", "g", "sub/g", ".")
    for _ in range(40):
        argv = ["region", "--resolution", rng.choice(("2", "3", "6", "10", "2", "3", "6", "10", "1", "-4"))]
        argv += ["--normalization=" + rng.choice(("1", "0.5", "3", "1e-300", "1e300", "1", "0.5", "nan", "-1", "0"))]
        for flag, suffix in (("--out", ".csv"), ("--svg", ".svg")):
            path = rng.choice(outputs)
            if path is not None:
                argv.append(f"{flag}={path + suffix if path != '.' else path}")
        yield tuple(argv)


def cli_records(capsys, tmp_path):
    """Exit code, stdout, the error: lines of stderr and the region files of each seeded call.

    The rest of stderr is argparse's usage text, which wraps with the terminal
    width and changes across Python versions, so it is left out.
    """
    records = []
    for argv in _cli_argvs(random.Random(9203)):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        files = []
        for name in ("g.csv", "g.svg"):
            path = tmp_path / name
            if path.exists():
                files.append((name, hashlib.sha256(path.read_bytes()).hexdigest()))
                path.unlink()
        records.append((argv, code, out, errors, files))
    return records


def test_cli_digest(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records = cli_records(capsys, tmp_path)
    codes = [code for _, code, _, _, _ in records]
    assert {0, 1, 2, ("SystemExit", 2)} <= set(codes)
    assert hashlib.sha256(repr(records).encode()).hexdigest() == CLI_DIGEST
