"""Workload definitions and the result arithmetic of run.py."""

import re

import pytest

import run
from repro.experiments.campaign import compile_campaign
from workloads import DEFAULT_SEED, MATRIX_RUNS, PINNED_DIGESTS, Workload, matrix_spec


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(PINNED_DIGESTS)


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
@pytest.mark.parametrize("seed", [1, DEFAULT_SEED, 12345])
@pytest.mark.parametrize("smoke", [False, True])
def test_every_workload_config_validates(name, seed, smoke):
    config = Workload(name, seed, smoke=smoke).base_config()
    assert config.seed == seed
    if name == "matrix30":
        jobs = compile_campaign(matrix_spec(seed, smoke))
        runs = 1 if smoke else MATRIX_RUNS
        defenses = {job.config.effective_defense() for job in jobs}
        assert len(defenses) == 6 and len(jobs) == 6 * runs
    else:
        assert config.effective_defense() == "liteworp"
        assert config.n_malicious == 4 and config.attack_mode == "outofband"


def test_pins_are_sha256_and_only_at_the_default_seed():
    for name, pin in PINNED_DIGESTS.items():
        assert re.fullmatch(r"[0-9a-f]{64}", pin), name
        assert Workload(name, DEFAULT_SEED).pinned == pin
        assert Workload(name, DEFAULT_SEED + 1).pinned is None
        assert Workload(name, DEFAULT_SEED, smoke=True).pinned is None


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        Workload("mesh2000", 4)


def test_quartiles_and_spread():
    row = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert row["median"] == 3.0 and row["n"] == 5
    assert (row["q1"], row["q3"]) == (2.0, 4.0)
    assert run.spread(row) == pytest.approx(2.0 / 3.0)
    # Two or three samples: quartiles stay within the observed values.
    pair = run.quartiles([2.0, 4.0])
    assert (pair["median"], pair["q1"], pair["q3"], pair["n"]) == (3.0, 2.5, 3.5, 2)
    assert run.spread(pair) == pytest.approx(1.0 / 3.0)
    triple = run.quartiles([1.0, 2.0, 4.0])
    assert (triple["median"], triple["q1"], triple["q3"]) == (2.0, 1.5, 3.0)
    # The exclusive method (acceptance across runs) extrapolates at n=2.
    assert run.quartiles([2.0, 4.0], method="exclusive")["q1"] == 1.5
    single = run.quartiles([2.0])
    assert single == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert run.spread(single) == 0.0


def test_check_flags_mismatches_by_workload():
    ok = {"ok": True, "traced": False, "digest": "a" * 64, "pinned": None}
    traced_bad = {"ok": True, "traced": True, "digest": "b" * 64, "pinned": None}
    crashed = {"ok": False, "traced": False, "error": "mesh200: RuntimeError: x"}
    results = [dict(ok), traced_bad, crashed]
    errors = run.check("mesh200", results)
    assert [r["ok"] for r in results] == [True, False, False]
    assert len(errors) == 2 and all(e.startswith("mesh200: pass") for e in errors)
    pinned = [dict(ok, pinned="c" * 64)]
    assert run.check("mesh200", pinned) and pinned[0]["ok"] is False
