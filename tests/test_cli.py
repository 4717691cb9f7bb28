"""Sweep harness and command line tests."""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ringhub as rh
from ringhub import _engine, cli

from reference import brute_force_ne, potential_users


HEADER_LINE = ("value,mode,avg_cost,congestion_ratio,avg_hub_users,"
               "std_hub_users,n_p,ne_best,ne_worst\n")


def tiny_base(**overrides) -> rh.SimConfig:
    net = rh.NetworkConfig(N=12, hub_links=3, L=5)
    cfg = rh.SimConfig(network=net, M=2, S=2, mode="homogeneous", T=30, warmup=10, seed=9)
    return rh.sim.config_with(cfg, **overrides) if overrides else cfg


def tiny_spec(**overrides) -> cli.SweepSpec:
    kwargs = dict(
        base=tiny_base(),
        sweep_variable="lambda",
        values=(2, 3, 4),
        replications=2,
    )
    kwargs.update(overrides)
    return cli.SweepSpec(**kwargs)


def spy_stacks(monkeypatch) -> list[list[int]]:
    """The network count of each stack of every engine call, as calls are made."""
    calls = []
    real = _engine.simulate_stacks

    def spy(stacks, *args, **kwargs):
        calls.append([len(stack[0]) for stack in stacks])
        return real(stacks, *args, **kwargs)

    monkeypatch.setattr(_engine, "simulate_stacks", spy)
    return calls


class TestSweepSpec:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="sweep_variable"):
            tiny_spec(sweep_variable="gamma")

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="values"):
            tiny_spec(values=())

    def test_nonpositive_replications_rejected(self):
        with pytest.raises(ValueError, match="replications"):
            tiny_spec(replications=0)

    def test_repeated_mode_rejected(self, capsys):
        # it would simulate each point twice and write duplicate CSV rows
        with pytest.raises(ValueError, match="^modes must be distinct"):
            tiny_spec(modes=("random", "homogeneous", "random"))
        argv = ["sweep", *TINY_FLAGS, "--variable", "lambda", "--values", "2",
                "--modes", "homogeneous,homogeneous"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: modes must be distinct")

    def test_invalid_point_rejected_up_front(self):
        with pytest.raises(ValueError, match="values"):
            tiny_spec(values=(2, 1))
        with pytest.raises(ValueError, match="values"):
            tiny_spec(sweep_variable="M", values=(0,))
        # a non-integer lambda is refused, not truncated to int(2.5) == 2
        with pytest.raises(ValueError, match="values"):
            tiny_spec(values=(2.5,))
        # capacity ratios that round to L < 1 are refused, not clamped to L = 1
        for ratio in (-0.5, 0, 0.001):
            with pytest.raises(ValueError, match="L must be"):
                tiny_spec(sweep_variable="capacity_ratio", values=(ratio,))

    @pytest.mark.parametrize("base", [{}, None], ids=["dict", "None"])
    def test_base_must_be_a_config(self, base):
        with pytest.raises(ValueError, match="base must be a SimConfig"):
            cli.SweepSpec(base=base, values=(2,))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="modes"):
            tiny_spec(modes=("homogeneous", "greedy"))

    def test_modes_default_to_base_mode(self):
        assert tiny_spec().modes == ("homogeneous",)
        spec = tiny_spec(base=tiny_base(mode="random"))
        assert spec.modes == ("random",)

    def test_config_at_each_variable(self):
        base = tiny_base()
        lam = cli.config_at(tiny_spec(), 4)
        assert lam.network.hub_links == 4

        mem = cli.config_at(tiny_spec(sweep_variable="M", values=(3,)), 3)
        assert mem.M == 3

        grown = cli.config_at(tiny_spec(sweep_variable="N", values=(24,)), 24)
        assert grown.network.N == 24
        # capacity keeps the base ratio 5/12
        assert grown.network.L == 10
        assert grown.network.hub_links == base.network.hub_links

        cap = cli.config_at(
            tiny_spec(sweep_variable="capacity_ratio", values=(0.5,)), 0.5
        )
        assert cap.network.L == 6


class TestRunSweep:
    def test_single_point_single_rep_matches_run(self):
        spec = tiny_spec(values=(3,), replications=1)
        rows = cli.run_sweep(spec)
        assert len(rows) == 1
        row = rows[0]
        metrics = rh.run(cli.config_at(spec, 3))
        assert row.value == 3
        assert row.mode == "homogeneous"
        assert row.avg_cost == metrics.avg_cost
        assert row.congestion_ratio == metrics.congestion_ratio
        assert row.avg_hub_users == metrics.avg_hub_users
        assert row.std_hub_users == metrics.std_hub_users
        assert row.n_p == metrics.n_p

    def test_one_row_per_value_and_mode(self):
        spec = tiny_spec(modes=("homogeneous", "random"))
        rows = cli.run_sweep(spec)
        assert [(r.value, r.mode) for r in rows] == [
            (v, m) for v in (2, 3, 4) for m in ("homogeneous", "random")
        ]

    def test_rows_carry_the_ne_band(self):
        for row in cli.run_sweep(tiny_spec(modes=("homogeneous", "random"))):
            assert isinstance(row.ne_best, float) and isinstance(row.ne_worst, float)
            assert row.ne_best <= row.ne_worst

    def test_sweep_is_deterministic(self):
        spec = tiny_spec()
        assert cli.run_sweep(spec) == cli.run_sweep(spec)

    @pytest.mark.parametrize("mode", rh.sim.MODES)
    @pytest.mark.parametrize(
        "variable,values", [("lambda", (2, 3, 7, 12)), ("capacity_ratio", (0.1, 0.5, 1))]
    )
    def test_stacked_rows_equal_replicate(self, monkeypatch, mode, variable, values):
        monkeypatch.setattr(_engine, "CHUNK", 4)  # so that runs lock
        calls = spy_stacks(monkeypatch)
        spec = tiny_spec(
            base=tiny_base(T=120), sweep_variable=variable, values=values,
            replications=5, modes=(mode,),
        )
        rows = cli.run_sweep(spec)
        assert calls == [[len(values)]]  # every point in one engine batch
        for row, value in zip(rows, values):
            want = rh.replicate(replace(cli.config_at(spec, value), mode=mode), 5)
            assert row == cli.SweepRow(
                **vars(want.mean), value=value, mode=mode,
                ne_best=want.ne_best, ne_worst=want.ne_worst,
            )

    def test_m_and_n_points_run_one_at_a_time(self, monkeypatch):
        # each M or N point is a stack of its own, and a sweep's stacks run
        # in one engine call
        calls = spy_stacks(monkeypatch)
        cli.run_sweep(tiny_spec(sweep_variable="M", values=(1, 2, 3)))
        cli.run_sweep(tiny_spec(sweep_variable="N", values=(8, 12)))
        assert calls == [[1, 1, 1], [1, 1]]

    def test_two_modes_fork_once_and_price_each_network_once(self, monkeypatch):
        """Both modes of a lambda sweep run in one fork, and each worker
        prices a lambda's trip tables once for the two modes: one
        route_table call per (network, slab)."""
        forks, tables = [], _engine._shared_empty(2, dtype=np.int64)
        tables[:] = 0
        caller, real_fork, real_table = os.getpid(), os.fork, _engine.route_table

        def counting_fork():
            forks.append(1)
            return real_fork()

        def counting_table(net, origins, dests):
            tables[os.getpid() != caller] += 1  # shared with the forked worker
            return real_table(net, origins, dests)

        monkeypatch.setattr(_engine, "WORKERS", 2)
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(_engine, "route_table", counting_table)
        spec = tiny_spec(modes=("homogeneous", "random"), replications=4)
        rows = cli.run_sweep(spec)
        assert len(forks) == 1
        assert tables.tolist() == [len(spec.values)] * 2  # one slab a worker
        monkeypatch.setattr(_engine, "WORKERS", 1)
        assert rows == cli.run_sweep(spec)


class TestOptimalLambda:
    def test_requires_capacity_ratio_sweep(self):
        with pytest.raises(ValueError, match="sweep_variable"):
            cli.optimal_lambda(tiny_spec())

    def test_requires_one_mode(self):
        spec = tiny_spec(
            sweep_variable="capacity_ratio", values=(0.5,), modes=("homogeneous", "random")
        )
        with pytest.raises(ValueError, match="modes"):
            cli.optimal_lambda(spec, lambda_values=(4,))

    def test_refuses_an_empty_grid(self, monkeypatch):
        monkeypatch.setattr(cli, "run_sweep", None)  # refused before any sweep
        spec = tiny_spec(sweep_variable="capacity_ratio", values=(0.5,))
        with pytest.raises(ValueError, match="lambda_values"):
            cli.optimal_lambda(spec, lambda_values=())

    @pytest.mark.parametrize("grid", [(200,), (1,), (3.5,), 5, "4"])
    def test_refuses_a_bad_grid(self, monkeypatch, grid):
        monkeypatch.setattr(cli, "run_sweep", None)  # refused before any sweep
        spec = tiny_spec(sweep_variable="capacity_ratio", values=(0.5,))
        with pytest.raises(ValueError, match="lambda_values"):
            cli.optimal_lambda(spec, lambda_values=grid)

    def test_degenerate_grid(self):
        spec = tiny_spec(sweep_variable="capacity_ratio", values=(0.5,))
        table = cli.optimal_lambda(spec, lambda_values=(4,))
        assert table == [(0.5, 4)]

    def test_tie_goes_to_smaller_lambda(self, monkeypatch):
        def fake_run_sweep(sub):
            return [
                cli.SweepRow(
                    value=v, mode="homogeneous", avg_cost=5.0,
                    congestion_ratio=0.0, avg_hub_users=1.0, std_hub_users=0.0,
                    n_p=3.0, ne_best=0.0, ne_worst=0.0,
                )
                for v in sub.values
            ]

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        spec = tiny_spec(sweep_variable="capacity_ratio", values=(0.5,))
        table = cli.optimal_lambda(spec, lambda_values=(7, 3, 5))
        assert table == [(0.5, 3)]

    def test_minimum_found_on_synthetic_curve(self, monkeypatch):
        costs = {2: 9.0, 3: 6.5, 4: 4.0, 5: 4.5, 6: 8.0}

        def fake_run_sweep(sub):
            return [
                cli.SweepRow(
                    value=v, mode="homogeneous", avg_cost=costs[v],
                    congestion_ratio=0.0, avg_hub_users=1.0, std_hub_users=0.0,
                    n_p=3.0, ne_best=0.0, ne_worst=0.0,
                )
                for v in sub.values
            ]

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        spec = tiny_spec(sweep_variable="capacity_ratio", values=(0.3, 0.9))
        table = cli.optimal_lambda(spec, lambda_values=tuple(costs))
        assert table == [(0.3, 4), (0.9, 4)]


class TestOutputs:
    def test_csv_schema_and_round_trip(self, tmp_path):
        rows = cli.run_sweep(tiny_spec(modes=("homogeneous", "random")))
        path = cli.emit_outputs(rows, tmp_path, basename="sweep")
        assert path == tmp_path / "sweep.csv"
        text = path.read_text(encoding="utf-8")
        assert text.startswith(HEADER_LINE)
        assert "\r" not in text
        assert cli.read_rows(path) == rows

    def test_csv_emission_is_byte_identical(self, tmp_path):
        rows = cli.run_sweep(tiny_spec())
        a = cli.emit_outputs(rows, tmp_path / "a")
        b = cli.emit_outputs(rows, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("basename", ["", ".", "..", "a/b"])
    def test_basename_that_is_not_a_file_name_refused(self, tmp_path, basename):
        rows = cli.run_sweep(tiny_spec(values=(2,), replications=1))
        target = tmp_path / "never"
        with pytest.raises(ValueError, match="^basename"):
            cli.emit_outputs(rows, target, basename=basename)
        assert not target.exists()

    def test_empty_rows_refused_before_writing(self, tmp_path):
        target = tmp_path / "never"
        with pytest.raises(ValueError, match="empty"):
            cli.emit_outputs([], target)
        assert not target.exists()

    def test_rows_that_are_not_sweep_rows_refused_before_writing(self, tmp_path):
        target = tmp_path / "never"
        with pytest.raises(ValueError, match="^rows"):
            cli.emit_outputs([1], target)
        assert not target.exists()

    def test_read_rows_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            cli.read_rows(path)

    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
    def test_read_rows_refuses_an_unreadable_path(self, tmp_path, missing):
        path = tmp_path / "gone.csv" if missing else tmp_path
        reason = "No such file or directory" if missing else "Is a directory"
        with pytest.raises(ValueError) as exc:
            cli.read_rows(path)
        assert str(exc.value) == f"cannot read {path}: {reason}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "line 1: unexpected header []"),
            (HEADER_LINE + "3,homogeneous,17.5,0.0\n", "line 2: 4 cells, expected 9"),
            (HEADER_LINE + "3,homogeneous,17.5,0.0,70.0,x,68.0,17.0,17.5\n",
             "line 2, column std_hub_users: 'x' is not a number"),
            (HEADER_LINE + "3,homogeneous,17.5,0.0,70.0,1.5,68.0,,\n",
             "line 2, column ne_best: '' is not a number"),
        ],
        ids=["empty", "short-row", "non-numeric", "blank-ne"],
    )
    def test_read_rows_refuses_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            cli.read_rows(path)
        assert str(exc.value).startswith(message)


class TestPresets:
    @pytest.mark.parametrize("name", cli.PRESETS)
    def test_presets_build_valid_specs(self, name):
        named = cli.preset_specs(name)
        assert named
        for basename, spec in named:
            assert isinstance(spec, cli.SweepSpec)
            assert basename
            assert spec.replications == 1000

    def test_overrides_apply_to_every_spec(self):
        for name in cli.PRESETS:
            for _, spec in cli.preset_specs(name, replications=50, seed=3):
                assert spec.replications == 50
                assert spec.base.seed == 3

    def test_multi_scale_covers_four_ring_sizes(self):
        named = cli.preset_specs("multi-scale")
        sizes = [spec.base.network.N for _, spec in named]
        assert sizes == [20, 40, 60, 80]
        for _, spec in named:
            assert spec.base.network.L == round(0.8 * spec.base.network.N)
            assert spec.values == tuple(range(2, spec.base.network.N + 1))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            cli.preset_specs("nonsense")

    def test_unknown_override_names_the_field(self):
        with pytest.raises(ValueError, match="foo"):
            cli.preset_specs("baseline-homogeneous", foo=1)


TINY_DOC = {
    "network": {"N": 12, "hub_links": 3, "L": 5},
    "M": 2, "S": 2, "T": 30, "warmup": 10, "seed": 9,
}

NET_FLAGS = ["--nodes", "12", "--hub-links", "3", "--capacity", "5", "--seed", "9"]
TINY_FLAGS = [*NET_FLAGS, "--memory", "2", "--strategies", "2", "--steps", "30", "--warmup", "10"]


class TestMain:
    def test_run_prints_metrics(self, capsys):
        assert cli.main(["run", *TINY_FLAGS]) == 0
        out = capsys.readouterr().out
        metrics = rh.run(tiny_base())
        assert f"avg_cost={metrics.avg_cost}" in out
        assert f"congestion_ratio={metrics.congestion_ratio}" in out
        assert f"n_p={metrics.n_p}" in out

    def test_run_replicated_reports_se_and_baseline(self, capsys):
        assert cli.main(["run", *TINY_FLAGS, "--reps", "3"]) == 0
        out = capsys.readouterr().out
        assert "(se " in out
        assert "ne_best=" in out and "ne_worst=" in out

    def test_run_trace_writes_csv(self, tmp_path, capsys):
        code = cli.main(["run", *TINY_FLAGS, "--trace", "--out-dir", str(tmp_path)])
        assert code == 0
        trace = tmp_path / "trace.csv"
        assert trace.exists()
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,n_in,h,total_cost"
        assert len(lines) == 31

    def test_run_trace_needs_single_rep(self, capsys):
        code = cli.main(["run", *TINY_FLAGS, "--trace", "--reps", "2"])
        assert code == 2
        assert "trace" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    @pytest.mark.parametrize("trace", [[], ["--trace"]])
    def test_run_refuses_reps_below_one_naming_reps(self, capsys, reps, trace):
        assert cli.main(["run", *TINY_FLAGS, *trace, "--reps", reps]) == 2
        err = capsys.readouterr().err
        assert err == f"error: reps must be an integer >= 1, got {reps}\n"

    def test_ne_prints_baseline(self, capsys):
        assert cli.main(["ne", *NET_FLAGS]) == 0
        out = capsys.readouterr().out
        cfg = tiny_base()
        net = rh.build_network(cfg.network)
        dests = rh.draw_destinations(net.N, np.random.default_rng(cfg.seed))
        best, worst = brute_force_ne(net, dests, cfg.network.L)
        assert f"n_p={potential_users(net, dests)}" in out.splitlines()
        assert f"c_best={best} ({float(best)})" in out.splitlines()
        assert f"c_worst={worst} ({float(worst)})" in out.splitlines()

    def test_ne_takes_prices_too_fine_for_a_simulation(self, capsys):
        # T=1000 steps of these prices' cost sums could pass int64, but ne
        # simulates no steps
        assert cli.main(["ne", "--seed", "3", "--alpha", "1/10000000000000", "--beta", "2"]) == 0
        assert "n_p=69" in capsys.readouterr().out.splitlines()

    def test_ne_refuses_a_bad_seed(self, capsys):
        assert cli.main(["ne", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_ne_refuses_agent_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ne", *NET_FLAGS, "--memory", "5"])
        assert exc.value.code == 2
        assert "--memory" in capsys.readouterr().err

    def test_sweep_ad_hoc_writes_csv(self, tmp_path, capsys):
        code = cli.main([
            "sweep", *TINY_FLAGS, "--variable", "lambda", "--values", "2,3,4",
            "--reps", "2", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        path = tmp_path / "results.csv"
        assert str(path) in capsys.readouterr().out
        rows = cli.read_rows(path)
        assert [r.value for r in rows] == [2, 3, 4]
        assert rows == cli.run_sweep(tiny_spec())

    def test_sweep_has_no_format_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "sweep", *TINY_FLAGS, "--variable", "lambda", "--values", "2,3",
                "--reps", "1", "--out-dir", str(tmp_path), "--format", "csv",
            ])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_sweep_has_no_fast_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--preset", "multi-scale", "--fast", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--fast" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_sweep_config_file(self, tmp_path, capsys):
        doc = {
            "base": {
                "network": {"N": 12, "hub_links": 3, "L": 5, "alpha": "1/2", "beta": "3/2"},
                "M": 2, "S": 2, "mode": "homogeneous",
                "T": 30, "warmup": 10, "seed": 9,
            },
            "sweep_variable": "M",
            "values": [1, 2],
            "replications": 2,
        }
        cfg_path = tmp_path / "myexp.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 0
        rows = cli.read_rows(tmp_path / "myexp.csv")
        assert [r.value for r in rows] == [1, 2]
        want = cli.run_sweep(tiny_spec(sweep_variable="M", values=(1, 2)))
        assert rows == want

    def test_sweep_reps_flag_overrides_config(self, tmp_path):
        doc = {"base": TINY_DOC, "values": [3], "replications": 500}
        cfg_path = tmp_path / "quick.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--seed", "11", "--reps", "4",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        want = tiny_spec(base=tiny_base(seed=11), values=(3,), replications=4)
        assert cli.read_rows(tmp_path / "quick.csv") == cli.run_sweep(want)

    def test_sweep_flags_override_config_base(self, tmp_path):
        """--capacity and --memory act as if written into the file's base.
        argparse reads --mode as an abbreviation of --modes, which here sets
        the modes run, as the base mode of a file with no modes would."""
        flagged = tmp_path / "flagged.json"
        flagged.write_text(json.dumps({"base": TINY_DOC, "values": [2, 3]}), encoding="utf-8")
        written = tmp_path / "written.json"
        base = {**TINY_DOC, "network": {**TINY_DOC["network"], "L": 4}, "M": 3, "mode": "random"}
        written.write_text(json.dumps({"base": base, "values": [2, 3]}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "sweep", "--config", str(flagged), "--capacity", "4", "--memory", "3",
            "--mode", "random", "--reps", "2", "--out-dir", str(out),
        ]) == 0
        assert cli.main([
            "sweep", "--config", str(written), "--reps", "2", "--out-dir", str(out),
        ]) == 0
        flagged_csv = (out / "flagged.csv").read_bytes()
        assert flagged_csv == (out / "written.csv").read_bytes()
        assert [r.mode for r in cli.read_rows(out / "flagged.csv")] == ["random", "random"]

    @pytest.mark.parametrize(
        "name,index",
        [(name, i) for name in cli.PRESETS for i in range(len(cli.PRESET_DOCS[name]))],
    )
    def test_preset_docs_are_config_files(self, tmp_path, monkeypatch, name, index):
        seen = []
        rows = cli.run_sweep(tiny_spec(values=(3,), replications=1))
        monkeypatch.setattr(cli, "run_sweep", lambda spec: seen.append(spec) or rows)
        monkeypatch.setattr(cli, "optimal_lambda", lambda spec: seen.append(spec) or [])
        basename, doc = cli.PRESET_DOCS[name][index]
        cfg_path = tmp_path / f"{basename}.json"
        cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        for source in (["--preset", name], ["--config", str(cfg_path)]):
            assert cli.main(["sweep", *source, "--reps", "50", "--out-dir", str(tmp_path)]) == 0
        from_preset, from_config = seen[index], seen[-1]
        assert from_preset == from_config == cli.preset_specs(name, replications=50)[index][1]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--preset", "multi-scale", "--nodes", "10"], "L must be"),
            (["--preset", "optimal-lambda", "--modes", "homogeneous,random"], "one mode"),
        ],
    )
    def test_sweep_flag_errors_exit_cleanly(self, tmp_path, capsys, flags, message):
        code = cli.main(["sweep", *flags, "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_sweep_takes_one_document(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--preset", "heterogeneous", "--config", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"base": {"network": {"alpha": 0.3}}, "values": [3]}, "alpha"),
            ({"values": [3], "replicates": 2}, "replicates"),
            ({"base": {"M": 2, "memory": 3}, "values": [3]}, "memory"),
            ({"base": {"network": {"hubs": 3}}, "values": [3]}, "hubs"),
            ({"base": {"S": 2.0}, "values": [3]}, "S"),
            ([3], "object"),
            (None, "cannot read"),  # no file at all
            ({"base": {"network": {"alpha": "1/0"}}, "values": [3]}, "alpha"),
            ({"sweep_variable": "capacity_ratio", "values": ["1/0"]}, "capacity_ratio"),
            ({"base": {"M": True}, "values": [3]}, "M"),
            ({"base": {"seed": True}, "values": [3]}, "seed"),
            ({"values": 5}, "values must be a list"),
            ({"values": [3], "modes": "random"}, "modes must be a list"),
            ({"values": [3], "ne_baseline": False}, "unknown key(s) ne_baseline"),
        ],
    )
    def test_sweep_config_errors_exit_cleanly(self, tmp_path, capsys, doc, message):
        cfg_path = tmp_path / "bad.json"
        if doc is not None:
            cfg_path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_sweep_malformed_config_exits_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text('{"values": [3', encoding="utf-8")
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and "broken.json" in err

    def test_run_invalid_flag_exits_cleanly(self, capsys):
        assert cli.main(["run", *TINY_FLAGS, "--hub-links", "1"]) == 2
        assert "hub_links" in capsys.readouterr().err

    def test_run_too_large_for_memory_exits_cleanly(self, capsys):
        # refused from the size estimate, before anything is allocated
        assert cli.main(["run", *TINY_FLAGS, "--strategies", "1000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "S=1000000000" in err

    def test_run_out_dir_needs_trace(self, tmp_path, capsys):
        assert cli.main(["run", *TINY_FLAGS, "--out-dir", str(tmp_path / "d")]) == 2
        assert "out-dir" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_dir_that_is_a_file_exits_cleanly(self, tmp_path, monkeypatch, capsys, command):
        """The output directory is made before anything is simulated, and
        its OSError is reported as an error naming out-dir."""
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")

        def simulate(*args, **kwargs):
            raise AssertionError("simulated before the output directory was made")

        monkeypatch.setattr(cli, "run", simulate)
        monkeypatch.setattr(cli, "run_sweep", simulate)
        flags = ["--trace"] if command == "run" else ["--variable", "lambda", "--values", "2"]
        assert cli.main([command, *TINY_FLAGS, *flags, "--out-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out-dir: ") and str(taken) in err

    def test_run_trace_defaults_to_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", *TINY_FLAGS, "--trace"]) == 0
        assert (tmp_path / "trace.csv").exists()

    def test_sweep_requires_a_source(self, capsys):
        assert cli.main(["sweep", *TINY_FLAGS]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_variable_requires_values(self, capsys):
        assert cli.main(["sweep", *TINY_FLAGS, "--variable", "lambda"]) == 2
        assert "--values" in capsys.readouterr().err

    def test_sweep_float_values_read_back(self, tmp_path):
        argv = ["sweep", *TINY_FLAGS, "--variable", "capacity_ratio", "--values", "0.5,0.9",
                "--modes", "random", "--reps", "1", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        rows = cli.read_rows(tmp_path / "results.csv")
        assert [row.value for row in rows] == [0.5, 0.9]

    def test_sweep_malformed_values_name_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", *TINY_FLAGS, "--variable", "lambda", "--values", "2,,3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --values: '2,,3'" in err and "_value_list" not in err

    def test_sweep_invalid_value_exits_cleanly(self, capsys):
        code = cli.main([
            "sweep", *TINY_FLAGS, "--variable", "lambda", "--values", "2,200",
            "--reps", "1",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_optimal_lambda_preset_writes_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "optimal_lambda", lambda spec: [(0.3, 30), (0.9, 12)]
        )
        code = cli.main([
            "sweep", "--preset", "optimal-lambda", "--reps", "50",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        text = (tmp_path / "optimal-lambda.csv").read_text(encoding="utf-8")
        assert text == "capacity_ratio,optimal_lambda\n0.3,30\n0.9,12\n"

    def test_entry_point_registered(self):
        """`ringhub` is declared as a console script for ringhub.cli:main.

        The declaration is read from pyproject.toml, so the check holds when
        the suite runs uninstalled from the source tree; installed metadata
        is checked as well wherever the distribution is installed.
        """
        import importlib
        from importlib.metadata import PackageNotFoundError, distribution

        target = "ringhub.cli:main"
        try:
            dist = distribution("ringhub")
        except PackageNotFoundError:
            pass
        else:
            match = [
                ep for ep in dist.entry_points
                if ep.group == "console_scripts" and ep.name == "ringhub"
            ]
            assert match and match[0].value == target

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        scripts = project.get("scripts", {})
        assert scripts.get("ringhub") == target
        module, attr = scripts["ringhub"].split(":")
        assert getattr(importlib.import_module(module), attr) is cli.main

    def test_module_entry_point(self):
        """`python -m ringhub` runs cli.main and warns of nothing: with
        -W error, a warning such as runpy's about a module imported twice
        would end it with a traceback."""
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ringhub", "--help"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: ringhub ")
        assert proc.stderr == ""


class TestParserReuse:
    """main parses every argv against one parser, built at its first call."""

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli._parser.cache_clear()
        assert cli.main(["ne", "--seed", "3"]) == 0
        first = len(built)
        assert first > 0
        assert cli.main(["ne", "--seed", "4"]) == 0
        assert cli.main(["run", *TINY_FLAGS]) == 0
        assert len(built) == first
        assert cli._parser() is cli._parser()

    def test_no_state_carries_between_calls(self, tmp_path, capsys):
        sweep = ["sweep", *TINY_FLAGS, "--variable", "lambda", "--values", "2,3",
                 "--modes", "homogeneous,random", "--reps", "2", "--out-dir", str(tmp_path)]
        plain = ["run", *NET_FLAGS, "--strategies", "2", "--steps", "30", "--warmup", "10"]
        calls = [
            ["ne", "--seed", "3"],
            ["run", *TINY_FLAGS, "--memory", "3"],
            plain,
            ["run", *TINY_FLAGS, "--bogus"],
            ["run", "--hub-links", "1"],
            sweep,
        ]

        def call(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            table = (tmp_path / "results.csv").read_bytes() if argv is sweep else None
            return code, out, err, table

        first = [call(argv) for argv in calls]
        assert [c[0] for c in first] == [0, 0, 0, 2, 2, 0]
        assert [call(argv) for argv in calls] == first

        # --memory 3 of the call before leaves no default behind
        metrics = rh.run(tiny_base(M=rh.SimConfig.M))
        assert first[2][1] == "".join(
            f"{name}={getattr(metrics, name)}\n" for name in rh.sim.METRIC_NAMES
        )
        assert first[2][1] != first[1][1]
        # nor does --modes of the sweep before
        assert call(sweep[:sweep.index("--modes")] + sweep[sweep.index("--reps"):])[0] == 0
        assert [r.mode for r in cli.read_rows(tmp_path / "results.csv")] == ["homogeneous"] * 2

    @pytest.mark.parametrize("command", [[], ["run"], ["sweep"], ["ne"]],
                             ids=["top", "run", "sweep", "ne"])
    def test_help_equals_a_fresh_parsers(self, capsys, command):
        assert cli.main(["ne", "--seed", "3"]) == 0  # the cached parser has been used
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--help"])
        assert exc.value.code == 0
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._parser.__wrapped__().parse_args([*command, "--help"])
        assert cached == capsys.readouterr().out
        assert cached.startswith("usage: ringhub ")


def test_readme_command_lines_parse(monkeypatch):
    """Every `ringhub ...` line of the README's command-line block parses,
    so that a removed flag cannot linger in the docs."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("### Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "ringhub"]
    assert len(commands) >= 5
    for name in ("_cmd_run", "_cmd_sweep", "_cmd_ne"):
        monkeypatch.setattr(cli, name, lambda args: 0)
    for argv in commands:
        assert cli.main(argv) == 0, argv
