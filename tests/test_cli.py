"""CLI contract tests: config parsing/validation, deterministic outputs,
export formats, verification suites, and sweeps."""

import configparser
import dataclasses
import gc
import hashlib
import inspect
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import gapflow
from gapflow import cli
from gapflow import dispersive as dp
from gapflow import reynolds as ry
from gapflow import spectral as sp
from gapflow import verify as vf
from gapflow.cli import ConfigError, SweepCell
from gapflow.verify import CheckResult

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def strict_json(text):
    """json.loads that rejects the non-standard NaN / Infinity / -Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


SMALL = """
[params]
beta_F = 1.0
beta_p = 0.5

[discretization]
k_max = 12
n = 12
N_t = 6

[run]
T = 0.004
tol = 1e-8

[output]
outdir = relout
"""


# (section, key, kind) of every key whose value is a number or a list of numbers
NUMBER_KEYS = [
    (sec, key, kind) for sec, key, _, kind, *_ in cli._CONFIG_KEYS if kind in ("float", "float?", "floats", "horizon")
]


def small_cfg(**kv):
    cfg = cli.parse_config(SMALL)
    if kv:
        from dataclasses import replace

        cfg = replace(cfg, **kv)
    return cfg


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


class TestParseConfig:
    def test_empty_config_gets_all_defaults(self):
        cfg = cli.parse_config("")
        assert (cfg.beta_F, cfg.beta_p) == (1.0, 0.5)
        assert (cfg.theta1, cfg.theta2, cfg.eps1) == (1.0, 1.0, 0.5)
        assert cfg.init_kind == "single-bump"
        assert (cfg.u_amp, cfg.w_amp, cfg.v_amp) == (0.1, 0.05, 0.0)
        assert (cfg.k_max, cfg.n, cfg.n_t) == (48, 48, 32)
        assert (cfg.T, cfg.T_source) == (0.02, "explicit")
        assert (cfg.tol, cfg.max_iter) == (1e-9, 40)
        assert cfg.quench_eps is None and cfg.u_cap is None
        assert cfg.chunk_init is None and cfg.chunk_cap is None
        assert cfg.outdir == "out" and cfg.seed == 0
        assert cfg.snapshots == () and cfg.sweep_beta_F == () and cfg.sweep_beta_p == ()

    def test_every_field_but_init_arrays_is_one_key_in_field_order(self):
        names = [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "init_arrays"]
        assert [name for _, _, name, *_ in cli._CONFIG_KEYS] == names and len(names) == 27

    def test_driver_keys_reach_the_driver_config(self):
        text = (
            "[discretization]\nN_t = 7\n\n[run]\ntol = 1e-6\nmax_iter = 5\nquench_eps = 0.01\n"
            "u_cap = 50.0\nchunk_init = 0.001\nchunk_cap = 0.002\n"
        )
        assert cli.parse_config(text).driver_config() == ry.DriverConfig(
            n_t=7, tol=1e-6, max_iter=5, quench_eps=0.01, u_cap=50.0, chunk_init=0.001, chunk_cap=0.002
        )

    def test_params_keys_reach_the_model_params(self):
        # ModelParams has one field per [params] key, under the key's name,
        # and each of five distinct values lands on its own field
        params_keys = [key for sec, key, *_ in cli._CONFIG_KEYS if sec == "params"]
        assert [f.name for f in dataclasses.fields(dp.ModelParams)] == params_keys
        text = "[params]\nbeta_F = 1.5\nbeta_p = 0.25\ntheta1 = 1.25\ntheta2 = 0.75\neps1 = 0.125\n"
        assert cli.parse_config(text).model_params() == dp.ModelParams(
            beta_F=1.5, beta_p=0.25, theta1=1.25, theta2=0.75, eps1=0.125
        )

    @pytest.mark.parametrize("kind", ["bogus", "auto", "Constant"])
    def test_unknown_init_kind_is_rejected(self, kind):
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"[init]\nkind = {kind}\n")
        assert err.value.violations == [f"init.kind: must be one of constant, single-bump, file (got {kind!r})"]

    def test_canonical_echo_lists_every_key(self):
        text = cli.parse_config("").canonical()
        for section, key, *_ in cli._CONFIG_KEYS:
            assert f"[{section}]" in text
            assert f"\n{key} = " in text or text.startswith(f"{key} = ")

    def test_echo_round_trip_and_hash(self):
        c1 = cli.parse_config(SMALL)
        c2 = cli.parse_config(c1.canonical())
        assert c1.canonical() == c2.canonical()
        assert c1.config_hash == c2.config_hash
        assert c1.config_hash == hashlib.sha256(c1.canonical().encode()).hexdigest()
        assert len(c1.config_hash) == 64

    def test_negative_beta_F_violation_names_field(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("[params]\nbeta_F = -1\n")
        assert any("params.beta_F" in v for v in err.value.violations)

    @pytest.mark.parametrize("key", ["beta_F_values", "beta_p_values"])
    def test_sweep_list_entries_meet_the_bound_of_their_key(self, key):
        # each entry replaces params.beta_F or params.beta_p in one cell
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"[sweep]\n{key} = -1.0, 1.0\n")
        assert any(v.startswith(f"sweep.{key}: must be >= 0") for v in err.value.violations)

    def test_grid_sizes_below_three_are_violations(self):
        # every run needs n >= 3 interior nodes; 2 used to parse and then fail in simulate
        with pytest.raises(ConfigError) as err:
            cli.parse_config("[discretization]\nk_max = 2\nn = 2\n")
        assert err.value.violations == [
            "discretization.k_max: must be >= 3 (got 2)",
            "discretization.n: must be >= 3 (got 2)",
        ]
        cfg = cli.parse_config("[discretization]\nk_max = 3\nn = 3\n")
        assert (cfg.k_max, cfg.n) == (3, 3)

    @pytest.mark.parametrize("key", ["beta_F_values", "beta_p_values"])
    def test_repeated_sweep_values_are_listed_with_the_other_violations(self, key):
        # a repeat would run its cells twice and write their rows twice; -0.0 repeats 0.0
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"[params]\neps1 = 0\n\n[sweep]\n{key} = 0.0, 1.0, -0.0\n")
        assert err.value.violations == [
            "params.eps1: must be > 0 (got 0.0)",
            f"sweep.{key}: repeated value (got 0.0, 1.0, -0.0)",
        ]
        assert cli.parse_config(f"[sweep]\n{key} = 0.0, 1.0\n")

    def test_all_violations_reported_at_once(self):
        bad = """
[params]
beta_F = -1
eps1 = 0
theta9 = 2

[mystery]
x = 1

[discretization]
k_max = 16
n = 24

[run]
T = -0.5
"""
        with pytest.raises(ConfigError) as err:
            cli.parse_config(bad)
        v = "\n".join(err.value.violations)
        assert "unknown key params.theta9" in v
        assert "unknown section [mystery]" in v
        assert "params.beta_F" in v
        assert "params.eps1" in v
        assert "n == k_max" in v
        assert "run.T" in v
        assert len(err.value.violations) >= 6

    def test_non_numeric_values_reported(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("[params]\nbeta_F = abc\n\n[discretization]\nN_t = x\n")
        v = "\n".join(err.value.violations)
        assert "params.beta_F: not a number" in v
        assert "discretization.N_t: not an integer" in v

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key, kind", NUMBER_KEYS)
    def test_non_finite_values_rejected(self, section, key, kind, value):
        text = f"0.0, {value}" if kind == "floats" else value  # a list is checked entry by entry
        with pytest.raises(ConfigError) as err:
            cli.parse_config(f"[{section}]\n{key} = {text}\n")
        assert any(v.startswith(f"{section}.{key}: must be finite") for v in err.value.violations)

    def test_one_default_serves_both_entry_points(self):
        # an INI run and a DriverConfig built in code use the same driver defaults
        assert cli.parse_config("").driver_config() == ry.DriverConfig()
        params = inspect.signature(ry.gamma_iterate).parameters
        assert params["tol"].default == ry.DriverConfig.tol
        assert params["max_iter"].default == ry.DriverConfig.max_iter

    def test_auto_horizon_resolved_numerically(self):
        text = "[discretization]\nk_max = 16\nn = 16\n\n[run]\nT = auto\n"
        cfg = cli.parse_config(text)
        assert cfg.T_source == "auto"
        assert np.isfinite(cfg.T) and cfg.T > 0
        assert f"T = {cfg.T!r}" in cfg.canonical()
        echo = cli.parse_config(cfg.canonical())
        assert echo.T == cfg.T and echo.T_source == "auto"
        assert echo.canonical() == cfg.canonical()
        # the resolved T is the horizon formula
        # T0 = min{delta_o, 1/(2 L_G), kappa/2 / ((L_G+1)kappa + 2C||G0||_H2)}
        p, init = cfg.model_params(), cfg.initial_state()
        w0 = dp.gap_field(init.vw, p.theta2)
        cc = dp.contraction_constants(p, w0)
        d_o = dp.delta_o_bound(init.vw, sp.plate_eigenvalues(16), 0.9 * cc.r_max)
        b3 = cc.kappa / 2.0 / ((cc.L_G + 1.0) * cc.kappa + 2.0 * cc.C * dp.g0_norm_H2(p, w0, init.u))
        assert cfg.T == min(d_o, 1.0 / (2.0 * cc.L_G), b3)

    @pytest.mark.parametrize("name, T0", [("reference.ini", 7.01032876302685e-07), ("quench.ini", 3.102728650745424e-08)])
    def test_shipped_auto_horizon_is_pinned(self, name, T0):
        # T = auto on a shipped config resolves the whole constants chain; in
        # both, the third branch kappa/2 / ((L_G+1)kappa + 2C||G0||_H2) is the minimum
        lines = (REPO_CONFIGS / name).read_text().splitlines()
        cfg = cli.parse_config("\n".join("T = auto" if line.startswith("T = ") else line for line in lines))
        assert cfg.T == pytest.approx(T0, rel=1e-12)
        p, init = cfg.model_params(), cfg.initial_state()
        branches = dp.theory_constants(p, init.u, init.vw).T0_branches
        assert branches[2] == min(branches) == cfg.T

    def test_snapshot_outside_horizon_rejected(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("[run]\nT = 0.01\n\n[output]\nsnapshots = 0.0, 0.5\n")
        assert any("output.snapshots" in v for v in err.value.violations)

    def test_square_grid_required(self):
        with pytest.raises(ConfigError) as err:
            cli.parse_config("[discretization]\nk_max = 8\nn = 16\n")
        assert any("n == k_max" in v for v in err.value.violations)

    def test_file_kind_loads_and_checks_integrity(self, tmp_path):
        n = 8
        x = np.arange(1, n + 1) / (n + 1)
        path = tmp_path / "init.npz"
        np.savez(
            path,
            u_values=1.0 + 0.05 * np.sin(np.pi * x),
            v_modes=np.zeros(n),
            w_modes=np.r_[0.02, np.zeros(n - 1)],
        )
        base = (
            f"[init]\nkind = file\nfile = {path}\n{{sha}}\n"
            "[discretization]\nk_max = 8\nn = 8\nN_t = 4\n\n[run]\nT = 0.002\n"
        )
        cfg = cli.parse_config(base.format(sha=""))
        assert cfg.init_file_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        u, v, w = cfg.init_arrays
        assert np.array_equal(np.array(u), 1.0 + 0.05 * np.sin(np.pi * x))
        state = cfg.initial_state()
        assert np.array_equal(state.vw.w, np.r_[0.02, np.zeros(n - 1)])

        # declared content hash is verified
        ok = cli.parse_config(base.format(sha=f"file_sha256 = {cfg.init_file_sha256}"))
        assert ok.config_hash == cfg.config_hash
        with pytest.raises(ConfigError, match="hash mismatch"):
            cli.parse_config(base.format(sha="file_sha256 = " + "0" * 64))

    def test_file_kind_closes_the_init_file(self, tmp_path):
        path = tmp_path / "init.npz"
        np.savez(path, u_values=np.ones(8), v_modes=np.zeros(8), w_modes=np.zeros(8))
        text = f"[init]\nkind = file\nfile = {path}\n\n[discretization]\nk_max = 8\nn = 8\n\n[run]\nT = 0.002\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.parse_config(text)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_file_kind_shape_and_existence_errors(self, tmp_path):
        missing = (
            f"[init]\nkind = file\nfile = {tmp_path/'nope.npz'}\n\n"
            "[discretization]\nk_max = 8\nn = 8\n"
        )
        with pytest.raises(ConfigError, match="no such file"):
            cli.parse_config(missing)
        bad = tmp_path / "bad.npz"
        np.savez(bad, u_values=np.ones(5), v_modes=np.zeros(8), w_modes=np.zeros(8))
        with pytest.raises(ConfigError, match="u_values must have shape"):
            cli.parse_config(missing.replace("nope.npz", "bad.npz"))

    @pytest.mark.parametrize("key", ["n", "k_max"])
    @pytest.mark.parametrize("size", ["2", "x"])
    def test_a_rejected_grid_size_adds_no_shape_violation(self, tmp_path, key, size):
        # the size's own violation is the one reported; no array shape is
        # checked against a size that was rejected
        path = tmp_path / "init.npz"
        np.savez(path, u_values=np.ones(8), v_modes=np.zeros(8), w_modes=np.zeros(8))
        other = "k_max" if key == "n" else "n"
        text = f"[init]\nkind = file\nfile = {path}\n\n[discretization]\n{key} = {size}\n{other} = 8\n"
        with pytest.raises(ConfigError) as err:
            cli.parse_config(text)
        (violation,) = err.value.violations
        assert violation.startswith(f"discretization.{key}: ")

    def test_file_keys_only_valid_for_file_kind(self):
        with pytest.raises(ConfigError, match="only valid with kind = file"):
            cli.parse_config("[init]\nfile = stray.npz\n")
        with pytest.raises(ConfigError, match="only valid with kind = file"):
            cli.parse_config("[init]\nfile_sha256 = " + "0" * 64 + "\n")

    def test_shipped_reference_config_is_the_defaults(self):
        ref = cli.parse_config((REPO_CONFIGS / "reference.ini").read_text())
        assert ref.canonical() == cli.parse_config("").canonical()

    def test_reference_config_lists_every_key_at_its_default(self):
        cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
        cp.optionxform = str
        cp.read_string((REPO_CONFIGS / "reference.ini").read_text())
        listed = {(sec, key): text.strip() for sec in cp.sections() for key, text in cp.items(sec)}
        assert set(listed) == {(sec, key) for sec, key, *_ in cli._CONFIG_KEYS}
        violations = []
        for sec, key, _, kind, default, _ in cli._CONFIG_KEYS:
            given = cli._convert(kind, key, listed[(sec, key)], violations)
            assert given == cli._convert(kind, key, default, violations), f"{sec}.{key}"
        assert not violations

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("reference.ini", "a05e3175995e7c67ebdc6ff62547041b6935d584aadd1a6021f076331e62f005"),
            ("quench.ini", "2d0f787721bc8eaad428e54492c86cc1732caa01372272debf2595fc2788bc9d"),
        ],
    )
    def test_shipped_config_hash_is_pinned(self, name, digest):
        # the canonical echo is a file format: its bytes, and so the hash, never drift
        assert cli.parse_config((REPO_CONFIGS / name).read_text()).config_hash == digest

    def test_shipped_quench_config_parses(self):
        cfg = cli.parse_config((REPO_CONFIGS / "quench.ini").read_text())
        assert cfg.beta_F == 25.0 and cfg.beta_p == 1.0 and cfg.eps1 == 0.2
        assert cfg.init_kind == "constant" and cfg.k_max == cfg.n == 64


# ---------------------------------------------------------------------------
# simulate, determinism, export
# ---------------------------------------------------------------------------


class TestSimulateAndExport:
    def test_byte_identical_outputs_for_identical_config(self, tmp_path):
        cfg = small_cfg()
        cli.cmd_simulate(cfg, out=str(tmp_path / "a"), quiet=True)
        cli.cmd_simulate(cfg, out=str(tmp_path / "b"), quiet=True)
        for name in ("series.csv", "snapshots.csv", "record.json", "config_echo.ini"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} not deterministic"

    def test_series_csv_header_and_rows(self, tmp_path):
        record = cli.cmd_simulate(small_cfg(), out=str(tmp_path), quiet=True)
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "t,min_w,max_u,mass_residual,norm_X,contraction_ratio"
        assert len(lines) - 1 == record.report.series["t"].size
        first = [float(s) for s in lines[1].split(",")]
        assert first[0] == 0.0 and math.isnan(first[5])
        last = [float(s) for s in lines[-1].split(",")]
        assert last[0] == pytest.approx(0.004)

    def test_snapshots_csv_header_and_t0_block(self, tmp_path):
        cfg = small_cfg()
        cli.cmd_simulate(cfg, out=str(tmp_path), quiet=True)
        lines = (tmp_path / "snapshots.csv").read_text().splitlines()
        assert lines[0] == "t,field,index,value"
        u0 = cfg.initial_state().u.values
        block = [l.split(",") for l in lines[1:] if l.split(",")[1] == "u" and float(l.split(",")[0]) == 0.0]
        assert len(block) == cfg.n
        for i, row in enumerate(block):
            assert int(row[2]) == i + 1
            assert float(row[3]) == u0[i]

    def test_record_json_round_trip(self, tmp_path):
        cfg = small_cfg()
        cli.cmd_simulate(cfg, out=str(tmp_path), quiet=True)
        raw = (tmp_path / "record.json").read_text()
        d = strict_json(raw)
        assert d["schema_version"] == cli.SCHEMA_VERSION == "1.1"
        assert d["config_hash"] == cfg.config_hash
        assert d["code_version"] == gapflow.__version__
        assert d["termination"] == "converged" and d["quench_time"] is None
        n_rows = len(d["series"]["t"])
        for col in ("min_w", "max_u", "mass_residual", "norm_X", "contraction_ratio"):
            assert len(d["series"][col]) == n_rows
        # undefined values are null: no contraction ratio before the first chunk
        assert d["series"]["contraction_ratio"][0] is None
        # serialization is canonical: re-dumping the parsed payload reproduces the file
        assert json.dumps(d, sort_keys=True, indent=1) + "\n" == raw

    def test_snapshot_at_t0_equals_initial_data(self, tmp_path):
        cfg = small_cfg()
        record = cli.cmd_simulate(cfg, out=str(tmp_path), quiet=True)
        init = cfg.initial_state()
        snap = record.snapshots[0]
        assert snap["t"] == 0.0
        assert np.array_equal(np.array(snap["u"]), init.u.values)
        assert np.array_equal(np.array(snap["v"]), init.vw.v)
        assert np.array_equal(np.array(snap["w"]), init.vw.w)

    def test_requested_snapshot_times_map_to_nearest_state(self, tmp_path):
        cfg = small_cfg(snapshots=(0.0, 0.002, 0.004))
        record = cli.cmd_simulate(cfg, out=str(tmp_path), quiet=True)
        assert len(record.snapshots) == 3
        ts = record.report.trajectory.t
        for snap in record.snapshots:
            nearest = ts[np.argmin(np.abs(ts - snap["t_requested"]))]
            assert snap["t"] == nearest

    def test_export_writes_only_requested_format(self, tmp_path):
        record = cli._execute(small_cfg())
        files = cli.export(record, "json", str(tmp_path / "j"))
        assert set(files) == {"record"}
        assert os.listdir(tmp_path / "j") == ["record.json"]
        files = cli.export(record, "csv", str(tmp_path / "c"))
        assert set(files) == {"series", "snapshots"}
        assert sorted(os.listdir(tmp_path / "c")) == ["series.csv", "snapshots.csv"]
        with pytest.raises(ValueError, match="unknown export format"):
            cli.export(record, "xml", str(tmp_path))

    def test_export_bytes_match_simulate(self, tmp_path):
        cfg = small_cfg()
        cli.cmd_simulate(cfg, out=str(tmp_path / "sim"), quiet=True)
        cli.export(cli._execute(cfg), "json", str(tmp_path / "exp"))
        assert (tmp_path / "exp" / "record.json").read_bytes() == (
            tmp_path / "sim" / "record.json"
        ).read_bytes()


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


class TestVerify:
    def test_benchmark_suite_passes(self, capsys):
        summary = cli.cmd_verify("benchmark")
        out = capsys.readouterr().out
        assert summary.passed and len(summary.results) == 2
        assert "[PASS] benchmark.closed_form_gap" in out
        assert "suite benchmark: 2 checks, 0 failed" in out

    def test_semigroup_suite_passes(self, capsys):
        summary = cli.cmd_verify("semigroup")
        assert summary.passed
        names = [r.name for r in summary.results]
        assert "semigroup.norm_conservation" in names
        assert "semigroup.cocycle" in names

    def test_semigroup_suite_matches_the_per_sample_loop(self):
        # the per-sample loop the blocked suite replaced, kept as the reference
        seed, k = 4, 256
        spec = cli.sp.plate_eigenvalues(k)
        rng = np.random.default_rng(seed)
        decay = np.arange(1, k + 1, dtype=float) ** -2.0
        worst = 0.0
        for _ in range(100):
            s0 = cli.StateVW(v=rng.normal(size=k) * decay, w=rng.normal(size=k) * decay)
            base = cli.sp.norm_X(s0.v, s0.w, spec)
            for t in np.linspace(0.0, 100.0, 33)[1:]:
                turned = cli.sp.semigroup_apply(s0, spec, float(t))
                drift = abs(cli.sp.norm_X(turned.v, turned.w, spec) - base)
                worst = max(worst, drift / base)
        conservation, cocycle = vf._suite_semigroup(seed)
        assert conservation.passed == (worst <= 1e-10) and conservation.passed
        assert conservation.measured <= 1e-14 and worst <= 1e-14  # rounding level on both sides
        # the cocycle state is the next draw: equal bits mean the same stream was consumed
        s0 = cli.StateVW(v=rng.normal(size=k) * decay, w=rng.normal(size=k) * decay)
        ab = cli.sp.semigroup_apply(cli.sp.semigroup_apply(s0, spec, 0.7), spec, 2.6)
        direct = cli.sp.semigroup_apply(s0, spec, 3.3)
        gap = max(float(np.abs(ab.v - direct.v).max()), float(np.abs(ab.w - direct.w).max()))
        scale = max(float(np.abs(direct.v).max()), float(np.abs(direct.w).max()))
        assert cocycle.measured == gap / scale

    @pytest.mark.parametrize("seed", [40, 96])
    def test_lipschitz_suite_passes_where_one_calibration_path_failed(self, seed):
        # one calibration path gave 1.461 (seed 40) and 1.019 (seed 96) against 1.0
        summary = cli.cmd_verify("lipschitz", seed=seed, quiet=True)
        assert summary.passed
        holder = {r.name: r for r in summary.results}["lipschitz.holder_F"]
        assert holder.measured <= 1.0

    def test_holder_audit_fails_on_a_roughened_F(self, monkeypatch):
        real = ry._F_path
        calls = []

        def rough(u_path, plate, p):
            F = real(u_path, plate, p)
            calls.append(1)
            if len(calls) > vf._HOLDER_CALIBRATION_PATHS:  # the verification call
                F = F.copy()
                F[5] *= 2.0  # F jumps to twice its value at one time node
            return F

        monkeypatch.setattr(ry, "_F_path", rough)
        holder = {r.name: r for r in vf._suite_lipschitz(0)}["lipschitz.holder_F"]
        assert len(calls) == vf._HOLDER_CALIBRATION_PATHS + 1
        assert not holder.passed and holder.measured > 1.0

    def test_holder_audit_fails_a_fresh_quotient_three_times_the_allowed_one(self, monkeypatch):
        # the fresh path's quotient A is set to 3x the 2 L_A shape_A that the
        # four calibration paths allow, L_A being their worst measured/shape
        real = vf.holder_F_quotients
        cal = []

        def inflated(setup, u_path, q_modes):
            rep = real(setup, u_path, q_modes)
            if len(cal) < vf._HOLDER_CALIBRATION_PATHS:
                cal.append(rep)
                return rep
            L_A = max(r.measured_A / r.shape_A for r in cal)
            return dataclasses.replace(rep, measured_A=3.0 * 2.0 * L_A * rep.shape_A)

        monkeypatch.setattr(vf, "holder_F_quotients", inflated)
        holder = {r.name: r for r in vf._suite_lipschitz(0)}["lipschitz.holder_F"]
        assert not holder.passed and holder.measured == pytest.approx(3.0, rel=1e-12)

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            cli.cmd_verify("bogus")

    def test_summary_json_written(self, tmp_path):
        cli.cmd_verify("benchmark", out=str(tmp_path), quiet=True)
        d = strict_json((tmp_path / "verify_benchmark.json").read_text())
        assert d["schema_version"] == cli.SCHEMA_VERSION
        assert d["suite"] == "benchmark" and d["passed"] is True
        for r in d["results"]:
            assert isinstance(r["passed"], bool)
            assert isinstance(r["measured"], float)

    def test_elliptic_suite_sector_gate_can_fail(self, tmp_path):
        summary = cli.cmd_verify("elliptic", out=str(tmp_path), quiet=True)
        sector = {r.name: r for r in summary.results}["elliptic.sector"]
        # normal constant-coefficient operator: M just under 1/sin(pi/4) = sqrt(2)
        assert sector.passed and sector.measured <= sector.bound == pytest.approx(math.sqrt(2.0))
        strict_json((tmp_path / "verify_elliptic.json").read_text())
        n = 16
        op = ry.assemble_Pstar(
            cli.GridField(values=np.ones(n), bv=1.0),
            cli.GridField(values=np.zeros(n), bv=0.0),
            cli.GridField(values=np.ones(n), bv=1.0),
        )
        op[np.arange(n - 1), np.arange(1, n)] += 0.5 * (n + 1) ** 2  # non-normal
        skewed = vf._sector_gate(op)
        assert not skewed.passed and skewed.measured > 1.9

    def test_failing_suite_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setitem(
            vf.SUITES,
            "benchmark",
            lambda seed: [CheckResult("benchmark.stub", False, 2.0, 1.0)],
        )
        assert cli.main(["verify", "--suite", "benchmark"]) == 1
        assert "[FAIL] benchmark.stub" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_1x1 = SMALL.replace("beta_F = 1.0", "beta_F = 9.9") + (
    "\n[sweep]\nbeta_F_values = 1.0\nbeta_p_values = 0.5\n"
)


class TestSweep:
    def test_1x1_sweep_cell_equals_simulate(self, tmp_path):
        result = cli.cmd_sweep(
            cli.parse_config(SWEEP_1x1), out=str(tmp_path / "sw"), quiet=True
        )
        assert [c.termination for c in result.cells] == ["converged"]
        cli.cmd_simulate(small_cfg(), out=str(tmp_path / "one"), quiet=True)
        cell_dir = tmp_path / "sw" / "bF_1.0_bp_0.5"
        for name in ("series.csv", "record.json", "config_echo.ini"):
            assert (cell_dir / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="nonempty"):
            cli.cmd_sweep(small_cfg(), out=str(tmp_path), quiet=True)

    def test_partial_failure_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        orig = ry.run_coupled

        def flaky(p, init, T, config=None):
            if p.beta_F == 7.0:
                raise RuntimeError("synthetic cell failure")
            return orig(p, init, T, config)

        monkeypatch.setattr(cli.ry, "run_coupled", flaky)
        text = SMALL + "\n[sweep]\nbeta_F_values = 1.0, 7.0\nbeta_p_values = 0.5\n"
        result = cli.cmd_sweep(cli.parse_config(text), out=str(tmp_path), quiet=True)
        by_bf = {c.beta_F: c for c in result.cells}
        assert by_bf[1.0].termination == "converged"
        assert by_bf[7.0].termination == "error"
        assert "synthetic cell failure" in by_bf[7.0].note
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "beta_F,beta_p,termination,T_used,quench_time,note"
        assert len(rows) == 3 and any(",error," in r for r in rows)

    def test_a_cell_whose_start_gap_is_closed_at_a_node_is_a_quench(self, tmp_path):
        text = SMALL + "\n[init]\nw_amp = -1.5\n\n[sweep]\nbeta_F_values = 1.0\nbeta_p_values = 0.5\n"
        result = cli.cmd_sweep(cli.parse_config(text), out=str(tmp_path), quiet=True)
        assert [(c.termination, c.T_used, c.quench_time) for c in result.cells] == [("quench", 0.0, 0.0)]
        record = strict_json((tmp_path / "bF_1.0_bp_0.5" / "record.json").read_text())
        assert record["termination"] == "quench" and record["compat_proxy"] is None

    def test_monotonicity_scan_flags_regression(self):
        quench = lambda bf: SweepCell(bf, 1.0, "quench", 0.1, 0.1, "")
        conv = lambda bf: SweepCell(bf, 1.0, "converged", 0.3, None, "")
        notes = cli._monotonicity_scan([conv(1.0), quench(2.0), conv(3.0)])
        assert len(notes) == 1 and "beta_F=3.0" in notes[0]
        assert cli._monotonicity_scan([conv(1.0), quench(2.0), quench(3.0)]) == ()

    def test_parallel_sweep_matches_serial(self, tmp_path):
        text = SMALL + "\n[sweep]\nbeta_F_values = 0.5, 1.5\nbeta_p_values = 0.5\n"
        cli.cmd_sweep(cli.parse_config(text), out=str(tmp_path / "s1"), jobs=1, quiet=True)
        cli.cmd_sweep(cli.parse_config(text), out=str(tmp_path / "s2"), jobs=2, quiet=True)
        assert (tmp_path / "s1" / "sweep.csv").read_bytes() == (
            tmp_path / "s2" / "sweep.csv"
        ).read_bytes()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class TestMain:
    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        return str(p)

    def test_simulate_exit_zero_and_files(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--config", self._write(tmp_path, SMALL), "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert "termination=converged" in capsys.readouterr().out
        for name in ("series.csv", "snapshots.csv", "record.json", "config_echo.ini"):
            assert (tmp_path / "o" / name).is_file()

    def test_config_error_exit_two(self, tmp_path, capsys):
        rc = cli.main(
            ["simulate", "--config", self._write(tmp_path, "[params]\nbeta_F = -3\n")]
        )
        assert rc == 2
        assert "params.beta_F" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exit_two(self, tmp_path, capsys, jobs):
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--config", self._write(tmp_path, SWEEP_1x1), "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists()  # rejected before the output directory is made

    def test_unknown_suite_exit_two(self, capsys):
        assert cli.main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_export_csv_via_main(self, tmp_path, capsys):
        rc = cli.main(
            [
                "export",
                "--config",
                self._write(tmp_path, SMALL),
                "--format",
                "csv",
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert rc == 0
        assert sorted(os.listdir(tmp_path / "e")) == ["series.csv", "snapshots.csv"]

    def test_quench_termination_reported(self, tmp_path, capsys):
        text = """
[params]
beta_F = 25.0
beta_p = 1.0
eps1 = 0.2

[init]
kind = constant

[discretization]
k_max = 16
n = 16
N_t = 16

[run]
T = 0.3
tol = 1e-7
"""
        rc = cli.main(
            ["simulate", "--config", self._write(tmp_path, text), "--out", str(tmp_path / "q")]
        )
        assert rc == 0
        assert "termination=quench" in capsys.readouterr().out
        d = strict_json((tmp_path / "q" / "record.json").read_text())
        assert d["termination"] == "quench"
        assert 0.2 < d["quench_time"] < 0.3

    @pytest.mark.parametrize("w_amp", [-1.0, -1.5])
    def test_a_closed_start_gap_is_a_quench_at_t0(self, tmp_path, capsys, w_amp):
        # at w_amp = -1 the gap 1 - sin(pi x) is zero only at x = 1/2, between
        # the nodes of n = 12 but on the refined grid of the gap monitor; at
        # -1.5 it is negative at nodes, where F and so the compatibility
        # proxy are undefined (null)
        text = SMALL + f"\n[init]\nw_amp = {w_amp}\n"
        rc = cli.main(["simulate", "--config", self._write(tmp_path, text), "--out", str(tmp_path / "q")])
        assert rc == 0
        assert "termination=quench" in capsys.readouterr().out
        d = strict_json((tmp_path / "q" / "record.json").read_text())
        assert (d["termination"], d["T_used"], d["quench_time"]) == ("quench", 0.0, 0.0)
        assert (d["compat_proxy"] is None) == (w_amp < -1.0)
        assert d["compat_proxy"] is None or math.isfinite(d["compat_proxy"])
