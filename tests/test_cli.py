import io
import json
import os
import pathlib
import re
import shlex
import tracemalloc
import warnings

import numpy as np
import pytest

from qwlab import cli, decoherence, graphs, groups, hitting, quotient, walk

from conftest import full_direction_group, two_cycles, two_four_cycles


def run_cli(*argv):
    buf = io.StringIO()
    code = cli.main(list(argv), out=buf)
    return code, buf.getvalue()


def refuse(*args, **kwargs):
    raise AssertionError("allocation past the memory check")


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestHittingCommand:
    def test_edge_graph(self):
        code, out = run_cli("hitting", "--graph", "edge")
        assert code == 0
        row = csv_rows(out)[0]
        assert row["kind"] == "finite"
        assert float(row["tau"]) == pytest.approx(1.0, abs=1e-9)
        assert "# manifest-sha256=" in out

    def test_series_method(self):
        code, out = run_cli(
            "hitting", "--graph", "hypercube:3", "--coin", "grover",
            "--start", "symmetric", "--final", "all-ones",
            "--method", "series", "--epsilon", "1e-8",
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert row["method"] == "series"
        assert float(row["tau"]) == pytest.approx(4.0, abs=1e-3)

    def test_deterministic_output_bytes(self):
        args = ("hitting", "--graph", "cayley:s3:2gen", "--coin", "grover",
                "--start", "basis:0:1", "--final", "v5")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_bad_graph_exits_one(self):
        code, _ = run_cli("hitting", "--graph", "bogus:9")
        assert code == 1

    @pytest.mark.parametrize("start", ["basis:-1:1", "basis:8:1"])
    def test_out_of_range_start_exits_one(self, start, capsys):
        code, out = run_cli("hitting", "--graph", "hypercube:3", "--start", start)
        assert (code, out) == (1, "")
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["basis:0", "basis:0:1:2", "basis:x:1", "basis"])
    def test_malformed_start_names_the_token(self, start, capsys):
        code, out = run_cli("hitting", "--graph", "hypercube:3", "--start", start)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: bad start {start!r} (symmetric or basis:v:c)\n"

    @pytest.mark.parametrize("final", ["w0", "w9", "w19"])
    def test_word_final_out_of_range_exits_one(self, final, capsys):
        # w0 would otherwise read the last generator, the vertex w2 names
        code, out = run_cli("hitting", "--graph", "cayley:s3:2gen", "--final", final)
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("error: generator index") and "outside 1..2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "descriptor, problem",
        [("hypercube", "bad graph descriptor"), ("hypercube:3:1", "bad graph descriptor"),
         ("cayley:s3", "unknown graph"), ("cayley:s5:2gen", "unknown graph")],
    )
    def test_malformed_graph_exits_one(self, descriptor, problem, capsys):
        code, out = run_cli("hitting", "--graph", descriptor)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(f"error: {problem} {descriptor!r}")

    @pytest.mark.parametrize("command", [
        ["hitting"], ["spectrum"], ["sweep-decoherence"], ["quotient", "--subgroup", "(1,2)"], ["dfs"]])
    def test_glued_trees_is_not_a_shorthand(self, command, capsys):
        # glued trees are not regular, so no coined walk runs on them
        code, out = run_cli(command[0], "--graph", "gluedtrees:3", *command[1:])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("error: unknown graph 'gluedtrees:3'; shorthands: edge,")

    def test_step_cap_exhaustion_exits_two(self):
        code, _ = run_cli(
            "hitting", "--graph", "hypercube:3", "--coin", "grover",
            "--start", "basis:0:1", "--final", "all-ones",
            "--method", "series", "--epsilon", "1e-9", "--step-cap", "50",
        )
        assert code == 2

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_step_cap_below_one_exits_one(self, cap, capsys):
        code, out = run_cli(
            "hitting", "--graph", "hypercube:3", "--method", "series", "--step-cap", cap
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: step_cap must be >= 1\n"

    def test_distribution_file(self, tmp_path):
        path = tmp_path / "dist.csv"
        code, _ = run_cli(
            "hitting", "--graph", "edge", "--distribution", str(path), "--horizon", "4"
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,p_t,cumulative"
        assert lines[1].startswith("1,1,")
        assert lines[-1].startswith("# manifest-sha256=")

    @pytest.mark.parametrize(
        "target, horizon, message",
        [("dist.csv", "0", "error: horizon must be >= 1\n"),
         ("missing/dist.csv", "4", "error: [Errno 2] ")],
        ids=["horizon-0", "missing-directory"],
    )
    def test_distribution_failure_prints_nothing(self, tmp_path, capsys, target, horizon, message):
        path = tmp_path / target
        code, out = run_cli(
            "hitting", "--graph", "edge", "--distribution", str(path), "--horizon", horizon
        )
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(message)
        assert not path.exists()

    def test_trapped_start_reports_infinite(self):
        code, out = run_cli(
            "hitting", "--graph", "hypercube:3", "--coin", "grover",
            "--start", "basis:0:1", "--final", "all-ones",
            "--method", "series", "--epsilon", "1e-9", "--step-cap", "5000",
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert row["kind"] == "infinite"
        assert float(row["escape"]) == pytest.approx(0.4, abs=2e-3)


    def test_manifest_records_tolerances_and_numpy(self):
        _, out = run_cli("hitting", "--graph", "edge")
        line = next(l for l in out.splitlines() if l.startswith("# manifest="))
        manifest = json.loads(line[len("# manifest="):])
        assert manifest["tolerances"] == {
            "singular_rtol": hitting.SINGULAR_RTOL,
            "escape_atol": hitting.ESCAPE_ATOL,
        }
        assert manifest["numpy_version"] == np.__version__
        for argv in (
            ["spectrum", "--graph", "hypercube:2"],
            ["quotient", "--graph", "hypercube:2", "--subgroup", "(1,2)"],
            ["dfs", "--graph", "hypercube:3"],
            ["classical", "--hypercube", "3"],
        ):
            code, out = run_cli(*argv)
            assert code == 0
            if argv[0] == "classical":
                line = next(l for l in out.splitlines() if l.startswith("# manifest="))
                manifest = json.loads(line[len("# manifest="):])
            else:
                manifest = json.loads(out)["manifest"]
            assert manifest["numpy_version"] == np.__version__, argv[0]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_hypercube_matches_line_walk(self, n):
        code, out = run_cli("hitting", "--graph", f"hypercube:{n}")
        assert code == 0
        lw = quotient.hypercube_line_reduction(n)
        start = np.zeros(lw.dim, dtype=complex)
        start[lw.start_index] = 1.0
        line = hitting.measured_walk(
            walk.WalkOperator(lw.matrix), start, final_indices=[lw.final_index]
        )
        expected = hitting.hitting_time_closed_form(line).value
        assert float(csv_rows(out)[0]["tau"]) == pytest.approx(expected, rel=1e-9)


class TestSweepCommand:
    def test_endpoints_agree_across_kinds(self):
        code, out = run_cli(
            "sweep-decoherence", "--graph", "hypercube:2", "--coin", "grover",
            "--kinds", "both,coin,position", "--p-grid", "0,1",
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 6
        for p in ("0", "1"):
            taus = [float(r["tau"]) for r in rows if r["p"] == p]
            assert max(taus) - min(taus) < 1e-6
        line = next(l for l in out.splitlines() if l.startswith("# manifest="))
        manifest = json.loads(line[len("# manifest="):])
        assert manifest["tolerances"] == {
            "singular_rtol": hitting.SINGULAR_RTOL,
            "escape_atol": hitting.ESCAPE_ATOL,
            "gmres_rtol": decoherence.GMRES_RTOL,
            "gmres_restart": decoherence.GMRES_RESTART,
            "gmres_stall": decoherence.GMRES_STALL,
        }
        assert manifest["numpy_version"] == np.__version__

    @pytest.mark.parametrize("grid", ["0", "0,0.5"])
    def test_unknown_kind_exits_one(self, grid, capsys):
        code, out = run_cli("sweep-decoherence", "--graph", "hypercube:2", "--kinds", "bogus",
                            "--p-grid", grid)
        assert code == 1 and out == ""
        assert "unknown dephasing kind 'bogus'" in capsys.readouterr().err

    def test_zero_strength_matches_hitting_command(self):
        _, sweep_out = run_cli(
            "sweep-decoherence", "--graph", "hypercube:2", "--coin", "grover",
            "--kinds", "both", "--p-grid", "0",
        )
        _, hit_out = run_cli("hitting", "--graph", "hypercube:2", "--coin", "grover")
        sweep_tau = float(csv_rows(sweep_out)[0]["tau"])
        hit_tau = float(csv_rows(hit_out)[0]["tau"])
        assert sweep_tau == pytest.approx(hit_tau, abs=1e-10)

    def test_singular_point_builds_no_dense_superoperator(self, tmp_path, monkeypatch):
        path = tmp_path / "two-cycles.json"
        path.write_text(graphs.graph_to_json(two_four_cycles()))
        kron = np.kron

        def refuse(*args, **kwargs):
            raise AssertionError("dense construction at a singular point")

        def kron_below_d2(a, b):
            # the walk operator is a D-row Kronecker product; D^2 rows (D = 16) are refused
            if np.shape(a)[0] * np.shape(b)[0] >= 16**2:
                refuse()
            return kron(a, b)

        monkeypatch.setattr(decoherence, "decohered_superoperators", refuse)
        monkeypatch.setattr(hitting, "closed_form_engine", refuse)
        monkeypatch.setattr(np, "kron", kron_below_d2)
        code, out = run_cli("sweep-decoherence", "--graph-file", str(path), "--final", "v6",
                            "--kinds", "coin", "--p-grid", "0.5")
        row = csv_rows(out)[0]
        assert code == 0 and row["method"] == "closed_form" and row["escape"] == "1"

    @pytest.mark.parametrize("n", [4, 8])
    def test_two_cycles_return_in_n_at_every_strength(self, tmp_path, n):
        # measured at its own vertex, the symmetric start returns in its
        # component's 2n states over d = 2, on the pseudo-inverse route
        path = tmp_path / "two-cycles.json"
        path.write_text(graphs.graph_to_json(two_cycles(n)))
        code, out = run_cli("sweep-decoherence", "--graph-file", str(path), "--final", "v0",
                            "--p-grid", "0,0.5,1")
        rows = csv_rows(out)
        assert code == 0 and [row["p"] for row in rows] == ["0", "0.5", "1"]
        for row in rows:
            assert row["method"] == "pseudo_inverse"
            assert float(row["tau"]) == pytest.approx(n, rel=1e-9)

    def test_memory_error_exits_one(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.77 GiB for an array")

        monkeypatch.setattr(decoherence, "decohered_hitting_time", exhausted)
        code, _ = run_cli("sweep-decoherence", "--graph", "hypercube:2", "--p-grid", "0")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "9.77 GiB" in err


class TestSpectrumCommand:
    def test_grover_cube4_trace(self):
        code, out = run_cli("spectrum", "--graph", "hypercube:4", "--coin", "grover")
        assert code == 0
        payload = json.loads(out)
        assert payload["trace_p_int"] == 32
        assert payload["zero_coin_eigenvalues"]["0"] == 1

    def test_eigensolve_over_the_memory_budget_exits_one(self, monkeypatch, capsys):
        # seven 384 x 384 complex arrays against a 1 MiB budget, refused before
        # U is built (the rewired hypercube takes the dense eigensolve)
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        monkeypatch.setattr(walk.WalkOperator, "matrix", property(refuse))
        code, out = run_cli("spectrum", "--graph", "distorted-hypercube:6")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: dimension 384 needs an estimated 16 MiB, over a memory budget of 1 MiB\n"
        )

    def test_fourier_basis_over_the_memory_budget_exits_one(self, monkeypatch, capsys):
        # the Fourier spectrum of hypercube:6 fits in 1 MiB; the 384 x 72
        # untrapped basis that the coin blocks read does not (7 x 384 x 73
        # complex entries), and is refused before it is built
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        monkeypatch.setattr(walk.WalkOperator, "matrix", property(refuse))
        code, out = run_cli("spectrum", "--graph", "hypercube:6")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: dimension 384 needs an estimated 3 MiB, over a memory budget of 1 MiB\n"
        )

    @pytest.mark.parametrize("descriptor, coin", [
        ("distorted-hypercube:3", "grover"), ("distorted-hypercube:3", "dft"), ("cayley:s3:3gen", "dft"),
        ("cayley:s4:3gen", "dft"), ("hypercube:3", "grover")])
    def test_trace_is_the_trapped_count(self, descriptor, coin):
        # trace(P) is the trapped dimension, printed as that integer's float
        # on the dense and the Fourier route alike
        code, out = run_cli("spectrum", "--graph", descriptor, "--coin", coin)
        payload = json.loads(out)
        assert code == 0 and payload["trace_p_int"] > 0
        assert payload["trace_p"] == float(payload["trace_p_int"])
        assert f'"trace_p":{payload["trace_p_int"]}.0,' in out

    def test_dft_cube4_multiplicities(self):
        _, out = run_cli("spectrum", "--graph", "hypercube:4", "--coin", "dft")
        payload = json.loads(out)
        mults = sorted(e["multiplicity"] for e in payload["eigenvalues"])
        assert mults.count(8) >= 4
        assert payload["degeneracy_condition"] == "sufficient_for_infinite"


class TestQuotientCommand:
    def test_two_generator_reduction(self):
        code, out = run_cli(
            "quotient", "--graph", "cayley:s3:2gen", "--subgroup", "(1,2)",
            "--coin", "grover",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["orbits"] == [[0, 1], [2, 5], [3, 4], [6, 9], [7, 8], [10, 11]]
        assert payload["quotient_graph"]["num_vertices"] == 4
        assert payload["s_h"] == [1, 0, 4, 5, 2, 3]
        u_h = np.array([[complex(re, im) for re, im in row] for row in payload["u_h"]])
        assert np.max(np.abs(u_h.conj().T @ u_h - np.eye(6))) < 1e-10

    def test_walk_over_the_memory_budget_exits_one(self, monkeypatch, capsys):
        # the 384 x 6 rows of the grover coin, three 256 x 384 float64
        # arrays and the 256 x 256 u_h, against a 1 MiB budget;
        # quotient_walk reads the walk's factors, and is refused before its
        # orbit sums
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        monkeypatch.setattr(quotient, "_orbit_sums", refuse)
        code, out = run_cli("quotient", "--graph", "hypercube:6", "--subgroup", "(1,2)",
                            "--coin", "grover")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: dimension 384 needs an estimated 3 MiB, over a memory budget of 1 MiB\n"
        )

    def test_subgroup_required(self):
        code, _ = run_cli("quotient", "--graph", "cayley:s3:2gen")
        assert code == 1

    @pytest.mark.parametrize(
        "descriptor, texts",
        [("cayley:s3:2gen", ["(1,2)"]), ("hypercube:3", ["(1,2)", "(2,3)"])],
        ids=["cayley:s3:2gen", "hypercube:3"],
    )
    def test_never_enumerates_the_group(self, monkeypatch, descriptor, texts):
        g, cay, _ = cli.resolve_graph(descriptor, None)
        dim = graphs.BasisIndexing.from_graph(g).total_dim
        elements = groups.closure(cli.resolve_subgroup(texts, cay), dim=dim).elements
        expected_orbits = [list(o) for o in quotient.orbit_basis(elements, dim).orbits]

        def refuse(*args, **kwargs):
            raise AssertionError("quotient listed the group's elements")

        monkeypatch.setattr(groups, "closure", refuse)
        argv = ["quotient", "--graph", descriptor, "--coin", "grover"]
        for text in texts:
            argv += ["--subgroup", text]
        code, out = run_cli(*argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["orbits"] == expected_orbits
        if descriptor == "hypercube:3":
            u_h = walk.matrix_from_json(payload["u_h"])
            assert np.max(np.abs(u_h - quotient.hypercube_line_reduction(3).matrix)) < 1e-12

    def test_hypercube8_full_direction_group(self):
        argv = ["quotient", "--graph", "hypercube:8"]
        for i in range(1, 8):
            argv += ["--subgroup", f"({i},{i + 1})"]
        code, out = run_cli(*argv)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["orbits"]) == 16
        assert payload["quotient_graph"]["num_vertices"] == 9


class TestDfsCommand:
    def test_swap_example_passes(self):
        code, out = run_cli("dfs", "--graph", "hypercube:3")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_dfs"] is True
        expected = 1 / np.sqrt(2)
        for re, im in payload["coefficients"]:
            assert re == pytest.approx(expected, abs=1e-10)
            assert im == pytest.approx(0.0, abs=1e-10)

    def test_never_enumerates_the_group(self, monkeypatch):
        _, reference = run_cli("dfs", "--graph", "hypercube:3")
        cay = graphs.cayley_hypercube(3)
        num_orbits = len(quotient.orbit_basis(full_direction_group(cay).elements, 24).orbits)

        def refuse(*args, **kwargs):
            raise AssertionError("dfs listed the group's elements")

        monkeypatch.setattr(groups, "closure", refuse)
        code, out = run_cli("dfs", "--graph", "hypercube:3")
        assert code == 0
        assert out == reference
        payload = json.loads(out)
        assert payload["num_orbits"] == num_orbits
        assert payload["manifest"]["subgroup"] == ["(1,2)", "(2,3)"]

    @pytest.mark.parametrize("subgroup", [[], ["(1,2)(3,4)", "(2,3)"]])
    def test_builds_the_cube_and_each_lift_once(self, subgroup, monkeypatch):
        # the channel's swaps are the default subgroup's lifts; a given
        # subgroup adds its own lifts on the same Cayley graph
        _, reference = run_cli("dfs", "--graph", "hypercube:4", *(f"--subgroup={s}" for s in subgroup))
        calls = []
        for module, name in ((graphs, "cayley_hypercube"), (groups, "direction_perm_to_automorphism")):
            def counted(*args, _f=getattr(module, name), _name=name):
                calls.append(_name)
                return _f(*args)

            monkeypatch.setattr(module, name, counted)
        _, out = run_cli("dfs", "--graph", "hypercube:4", *(f"--subgroup={s}" for s in subgroup))
        assert out == reference
        assert calls.count("cayley_hypercube") == 1
        assert calls.count("direction_perm_to_automorphism") == 3 + len(subgroup)

    @pytest.mark.parametrize("descriptor", ["cayley:s4:3gen", "cayley:s3:2gen"])
    def test_cayley_graphs_take_the_same_path(self, descriptor):
        # the adjacent direction swaps lift on any Cayley graph whose
        # direction transpositions are automorphisms; the orbits of the
        # group they generate are decoherence-free with coefficients kappa
        code, out = run_cli("dfs", "--graph", descriptor)
        assert code == 0
        payload = json.loads(out)
        g, cay, _ = cli.resolve_graph(descriptor, None)
        adjacent = [f"({i},{i + 1})" for i in range(1, cay.degree)]
        assert payload["manifest"]["subgroup"] == adjacent
        dim = graphs.BasisIndexing.from_graph(g).total_dim
        assert payload["num_orbits"] == quotient.orbit_basis(cli.resolve_subgroup(adjacent, cay), dim).num_orbits
        assert payload["is_dfs"] is True and payload["witness"] is None
        kappa = 1 / np.sqrt(cay.degree - 1)
        assert len(payload["coefficients"]) == cay.degree - 1
        for re, im in payload["coefficients"]:
            assert re == pytest.approx(kappa, abs=1e-12) and im == 0.0

    @pytest.mark.parametrize("argv", [
        *(["--graph", f"hypercube:{n}"] for n in range(3, 8)),
        *(["--graph", f"cayley:{name}"] for name in ("s3:2gen", "s3:3gen", "s4:3gen")),
        ["--graph", "hypercube:3", "--kappas", "0.6,0.8"]])
    def test_coefficients_are_the_kappas_bit_for_bit(self, argv):
        code, out = run_cli("dfs", *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == [[kappa, 0.0] for kappa in payload["manifest"]["kappas"]]

    def test_graph_with_no_cayley_structure_is_one_error_line(self, capsys):
        code, out = run_cli("dfs", "--graph", "cycle:8")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: subgroups are specified for Cayley graphs only\n"

    def test_kappas_are_checked_before_the_subgroup(self, capsys):
        code, _ = run_cli("dfs", "--graph", "hypercube:4", "--kappas", "0.6,0.8", "--subgroup", "(1,9)")
        assert code == 1
        assert capsys.readouterr().err == "error: expected 3 coefficients, got 2\n"

    def test_one_dimensional_cube_is_one_error_line(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli("dfs", "--graph", "hypercube:1")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: swap dephasing needs n >= 2\n"


    def test_nan_kappas_are_one_error_line(self, capsys):
        code, out = run_cli("dfs", "--graph", "hypercube:3", "--kappas", "nan,nan")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: sum |kappa|^2 = nan != 1\n"

    def test_overflowing_kappas_are_one_error_line(self, capsys):
        # an overflow warning would be an error under the test settings
        code, out = run_cli("dfs", "--graph", "hypercube:3", "--kappas", "1e200,1e200")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: sum |kappa|^2 = inf != 1\n"


class TestClassicalCommand:
    def test_float_overflow_is_one_error_line(self, capsys):
        assert run_cli("classical", "--hypercube", "1024") == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_recursion_and_monte_carlo(self):
        code, out = run_cli(
            "classical", "--hypercube", "3", "--mc-trials", "20000", "--seed", "7"
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["tau_recursion"]) == 10.0
        mean, stderr = float(row["mc_mean"]), float(row["mc_stderr"])
        assert abs(mean - 10.0) <= 3 * stderr

    def test_deterministic_given_seed(self):
        args = ("classical", "--hypercube", "3", "--mc-trials", "5000", "--seed", "3")
        assert run_cli(*args) == run_cli(*args)

    def test_unreachable_final_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(graphs, "build_hypercube", lambda n: two_four_cycles())
        assert run_cli("classical", "--hypercube", "3", "--mc-trials", "10") == (2, "")
        assert capsys.readouterr().err == (
            "indeterminate: final vertex 7 is not reachable from start vertex 0\n"
        )

    def test_trials_over_the_memory_budget_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        monkeypatch.setattr(np, "zeros", refuse)
        code, out = run_cli("classical", "--hypercube", "3", "--mc-trials", "100000")
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: a Monte Carlo run of 100000 trials needs an estimated 6 MiB, "
            "over a memory budget of 1 MiB\n"
        )


@pytest.mark.parametrize("argv", [["hitting", "--graph", "hypercube:40"],
                                  ["classical", "--hypercube", "40", "--mc-trials", "1"]])
def test_huge_hypercube_exits_one_before_listing_edges(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("an edge was listed")

    monkeypatch.setattr(graphs, "Edge", refuse)
    code, out = run_cli(*argv)
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dimension 43980465111040 needs an estimated" in err


QUOTIENT_8 = ["quotient", "--graph", "hypercube:8", "--subgroup", "(1,2)", "--coin", "grover"]
DFS_8 = ["dfs", "--graph", "hypercube:8", "--subgroup", "(1,2)"]


@pytest.mark.parametrize("budget, argv, need", [
    # the sums into 1408 orbits of the factored walk's 2048 x 8 rows of C,
    # with the 1408 x 1408 u_h, are refused; no 2048 x 2048 U is built
    (60, QUOTIENT_8, "dimension 2048 needs an estimated 81 MiB"),
    # the orbit sums fit; the 1408 x 1408 u_h as JSON lists and text does not
    (200, QUOTIENT_8, "a JSON matrix of 1982464 entries needs an estimated 484 MiB"),
    # the 2048 x 2048 multiplier and its label comparison; its Kraus
    # weights are built only when read
    (40, ["sweep-decoherence", "--graph", "hypercube:8", "--kinds", "both", "--p-grid", "0.5"],
     "dimension 2048 needs an estimated 64 MiB"),
    # the 2048 x 1408 orbit isometry, then the scalar-action check on it
    (16, DFS_8, "dimension 2048 needs an estimated 22 MiB"),
    (40, DFS_8, "dimension 2048 needs an estimated 324 MiB"),
    # 300000 steps of probabilities and their CSV, before the first step
    (1, ["hitting", "--graph", "hypercube:3", "--distribution", os.devnull, "--horizon", "300000"],
     "a distribution of 300000 steps needs an estimated 57 MiB"),
])
def test_refused_with_the_estimate_before_the_budget_is_reached(monkeypatch, capsys, budget, argv, need):
    monkeypatch.setattr(walk, "_memory_budget", lambda: budget * 2**20)
    tracemalloc.start()
    try:
        code, out = run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {need}, over a memory budget of {budget} MiB\n"
    assert peak < budget * 2**20


class TestGraphFile:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(graphs.graph_to_json(graphs.build_cycle(4)))
        code, out = run_cli(
            "hitting", "--graph-file", str(path), "--coin", "grover",
            "--start", "basis:0:1", "--final", "v2",
        )
        assert code == 0
        assert float(csv_rows(out)[0]["tau"]) == pytest.approx(2.0, abs=1e-9)

    def test_missing_file_exits_one(self):
        code, _ = run_cli("hitting", "--graph-file", "/nonexistent/graph.json")
        assert code == 1

    @pytest.mark.parametrize("text, message", [
        ('{"num_vertices": 1e400, "edges": []}',
         "malformed graph document: cannot convert float infinity to integer"),
        ('{"num_vertices": 2, "edges": [{"u": 0, "cu": 1e400, "v": 1, "cv": 1}]}',
         "malformed graph document: cannot convert float infinity to integer"),
        ('{"num_vertices": NaN, "edges": []}',
         "malformed graph document: cannot convert float NaN to integer"),
        ('{"num_vertices": 1000000000000000000000000000000, "edges": []}',
         "dimension 1000000000000000000000000000000 needs an estimated"),
        # int() would read each of these as the edge graph and run the walk on it
        ('{"num_vertices": 2, "edges": [{"u": 0, "cu": 1, "v": 1.9, "cv": 1.2}]}',
         "malformed graph document: 1.9 is not an integer"),
        ('{"num_vertices": 2, "edges": [{"u": 0, "cu": true, "v": 1, "cv": 1}]}',
         "malformed graph document: True is not an integer"),
        ('{"num_vertices": 2, "edges": [{"u": 0, "cu": 1, "v": "1", "cv": 1}]}',
         "malformed graph document: '1' is not an integer"),
        ('{"num_vertices": 2.5, "edges": [{"u": 0, "cu": 1, "v": 1, "cv": 1}]}',
         "malformed graph document: 2.5 is not an integer"),
    ])
    def test_out_of_range_numbers_are_one_error_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "graph.json"
        path.write_text(text)
        assert run_cli("hitting", "--graph-file", str(path)) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_vertex_tables_over_the_memory_budget_are_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a vertex table was built")

        # 10^6 vertices at VERTEX_TABLE_BYTES each, against a 1 MiB budget
        monkeypatch.setattr(walk, "_memory_budget", lambda: 2**20)
        monkeypatch.setattr(graphs.ColoredGraph, "degrees", property(refuse))
        monkeypatch.setattr(graphs.ColoredGraph, "vertex_colors", property(refuse))
        with pytest.raises(ValueError, match="dimension 1000000 needs an estimated 95 MiB, over a memory budget of 1 MiB"):
            graphs.graph_from_dict({"num_vertices": 10**6, "edges": []})


class TestCachedParser:
    def test_repeated_subgroup_lists_do_not_leak_between_calls(self):
        base = ("quotient", "--graph", "hypercube:3")
        _, one = run_cli(*base, "--subgroup", "(1,2)")
        _, two = run_cli(*base, "--subgroup", "(2,3)", "--subgroup", "(1,3)")
        _, again = run_cli(*base, "--subgroup", "(1,2)")
        assert json.loads(one)["manifest"]["subgroup"] == ["(1,2)"]
        assert json.loads(two)["manifest"]["subgroup"] == ["(2,3)", "(1,3)"]
        assert again == one
        assert len(json.loads(two)["orbits"]) < len(json.loads(one)["orbits"])

    def test_valid_call_after_a_usage_error(self):
        _, before = run_cli("hitting", "--graph", "cycle:6")
        assert run_cli("hitting", "--graph", "cycle:6", "--method", "bogus")[0] == 1
        assert run_cli("hitting", "--no-such-option")[0] == 1
        code, after = run_cli("hitting", "--graph", "cycle:6")
        assert code == 0
        assert after == before

    def test_one_parser_build_per_process(self, monkeypatch):
        inits = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            inits.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        cli.build_parser.cache_clear()
        run_cli("hitting", "--graph", "edge")
        built = len(inits)  # the top-level parser and one per subcommand
        assert inits.count("qwlab") == 1
        run_cli("spectrum", "--graph", "hypercube:2")
        run_cli("hitting", "--bogus")
        run_cli("classical", "--hypercube", "3")
        assert len(inits) == built


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block of README's ``section``."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(rf"## {section}\n.*?```{language}\n(.*?)```", text, re.S).group(1)


def readme_commands():
    """The qwlab lines of README's "Command line" block, continuations joined."""
    block = readme_block("Command line", "sh")
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("qwlab ")]


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    commands = readme_commands()
    assert len(commands) == 11
    monkeypatch.chdir(tmp_path)  # one example writes a CSV file
    for argv in commands:
        assert run_cli(*argv[1:])[0] == 0, shlex.join(argv)


def test_readme_quickstart_prints_its_comments(capsys):
    # each print line's comment, up to a colon, is what it prints; a value
    # ending in "..." is a prefix of the printed one
    block = readme_block("Library quickstart", "python")
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    wanted = [line.split("#", 1)[1].split(":")[0].split() for line in block.splitlines()
              if line.startswith("print(")]
    assert wanted == [["infinite", "0.42857..."], ["fourier", "24"]]
    assert len(printed) == len(wanted)
    for got, want in zip(printed, wanted):
        got = got.split()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.startswith(w[:-3]) if w.endswith("...") else g == w
