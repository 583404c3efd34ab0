"""The paper's evaluation is pinned: ``repro.experiments`` vs the records.

Every simulated column of every experiment must equal the committed
``benchmarks/results/<id>.json`` exactly, so a model change that moves
a paper figure fails here instead of waiting for someone to re-read
EXPERIMENTS.md.  Host-measured columns (declared per experiment) are
left out of the comparison.  The shape claims are checked on the fresh
rows with the wall-time columns taken from the record, so a loaded
runner cannot fail the suite; ``repro reproduce`` and
``benchmarks/bench_paper.py`` check them on fresh host times.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import EXPERIMENTS, run_experiment

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: numpy least-squares output: compared to rel=1e-9, not exactly
FITTED = {"alpha_cycles", "beta_cyc_per_byte", "bandwidth_B_per_cyc"}
#: the host column that is not wall time: claimed fresh (S6c)
HEAP = {"simulator_peak_heap_mib"}


def simulated(exp, rows):
    """``rows`` without the host-measured columns, split exact / fitted."""
    exact = [{k: v for k, v in row.items()
              if k not in exp.host_columns and k not in FITTED}
             for row in rows]
    fitted = [[row[k] for k in sorted(FITTED & row.keys())] for row in rows]
    return exact, fitted


def test_every_record_has_a_spec_and_every_spec_a_record():
    assert sorted(p.stem for p in RESULTS.glob("*.json")) \
        == sorted(EXPERIMENTS)
    assert sorted(p.stem for p in RESULTS.glob("*.txt")) \
        == sorted(EXPERIMENTS)


@pytest.mark.parametrize("exp", EXPERIMENTS.values(), ids=list(EXPERIMENTS))
def test_rows_match_the_committed_record_and_claims_hold(exp):
    record = json.loads((RESULTS / f"{exp.id}.json").read_text())
    rows = run_experiment(exp, workers=1, cache=None)
    exact, fitted = simulated(exp, rows)
    want_exact, want_fitted = simulated(exp, record["rows"])
    assert exact == want_exact
    for got, want in zip(fitted, want_fitted):
        assert got == pytest.approx(want, rel=1e-9)
    assert record["experiment_id"] == exp.id
    assert record["description"] == exp.title
    assert record["parameters"] == dict(exp.parameters)
    timed = set(exp.host_columns) - HEAP
    exp.shape([{**row, **{k: want[k] for k in timed & want.keys()}}
               for row, want in zip(rows, record["rows"])])


def reproduce(capsys, *argv):
    code = main(["reproduce", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReproduceCommand:
    def test_cold_and_warm_stdout_identical_warm_is_all_hits(
            self, tmp_path, capsys):
        args = ["F3a-size", "V1", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache")]
        code, cold, err = reproduce(capsys, *args)
        assert code == 0
        assert "cache: 0 hits, 12 misses, 12 stored" in err
        code, warm, err = reproduce(capsys, *args)
        assert code == 0
        assert "cache: 12 hits, 0 misses, 0 stored" in err
        assert warm == cold

    def test_worker_count_does_not_change_the_record(self, tmp_path, capsys):
        for workers in ("1", "2"):
            code, _, _ = reproduce(capsys, "F3a-size", "--workers", workers,
                                   "--out", str(tmp_path / workers))
            assert code == 0
        serial = (tmp_path / "1" / "F3a-size.json").read_bytes()
        assert serial == (tmp_path / "2" / "F3a-size.json").read_bytes()
        assert serial == (RESULTS / "F3a-size.json").read_bytes()
        assert (tmp_path / "1" / "F3a-size.txt").read_bytes() \
            == (RESULTS / "F3a-size.txt").read_bytes()

    def test_host_time_experiment_ignores_the_cache(self, tmp_path, capsys):
        code, _, err = reproduce(capsys, "F2", "--cache-dir",
                                 str(tmp_path / "cache"))
        assert code == 0
        assert "cache: 0 hits, 0 misses, 0 stored" in err

    def test_unknown_id_lists_the_valid_ones(self):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "F9"])
        assert "unknown experiment 'F9'" in str(exc.value)
        assert "F3a-size" in str(exc.value)

    def test_failed_shape_claim_exits_1(self, capsys, monkeypatch):
        import dataclasses

        from repro import experiments

        def never(rows):
            raise experiments.ShapeError("no such shape")

        monkeypatch.setitem(
            experiments.EXPERIMENTS, "T1",
            dataclasses.replace(experiments.EXPERIMENTS["T1"], shape=never))
        code, out, err = reproduce(capsys, "T1")
        assert code == 1
        assert "T1: shape claim failed: no such shape" in err
        assert "warm_cycles" in out
