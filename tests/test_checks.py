"""The self-verification sweeps behind `urn check`."""

from fractions import Fraction

import pytest

from urndist import ParameterError, PmfTable, UrnParams
from urndist import checks
from urndist.checks import FamilyResult
from urndist.errors import ResourceGuardError


class TestRunAll:
    def test_all_families_pass_at_twelve(self):
        results = checks.run_all(12)
        assert [r.name for r in results] == [
            "pmf-oracle",
            "moments",
            "normalization-cdf",
            "pmf-shape",
            "median",
            "lemma-sums",
        ]
        assert all(r.ok for r in results)
        assert all(r.cases > 0 for r in results)
        # 78 parameter pairs with total <= 12
        assert results[1].cases == 78

    def test_trivial_bound(self):
        results = checks.run_all(1)
        assert all(r.ok for r in results)

    def test_sweep_guard_is_exact_at_its_limit(self, monkeypatch):
        # families stubbed out: the sweep at the limit itself takes ~10 s
        for name in [n for n in vars(checks) if n.startswith("_check_")]:
            monkeypatch.setattr(checks, name, lambda *args: FamilyResult("stub"))
        assert len(checks.run_all(checks._SWEEP_LIMIT)) == 6
        with pytest.raises(ResourceGuardError, match="force"):
            checks.run_all(checks._SWEEP_LIMIT + 1)
        assert len(checks.run_all(checks._SWEEP_LIMIT + 1, force=True)) == 6

    def test_force_lifts_only_the_sweep_guard(self):
        # the brute-force family stays at the enumeration limit, whose cost
        # doubles per unit of total: 20·21/2 urns, not 22·23/2
        results = checks.run_all(22, force=True)
        assert (results[0].name, results[0].cases) == ("pmf-oracle", 210)
        assert results[1].cases == 253
        assert all(r.ok for r in results)

    def test_bound_validated(self):
        with pytest.raises(ParameterError):
            checks.run_all(0)
        with pytest.raises(ParameterError):
            checks.run_all("12")

    def test_corrupted_pmf_is_caught_and_named(self, monkeypatch):
        from urndist.exact import pmf_table as real

        def corrupted_table(params):
            # shift mass between two support points so sums still hold
            table = real(params)
            probs = list(table.probabilities)
            if params.total == 7 and params.good == 2 and len(probs) >= 2:
                delta = Fraction(1, 1000)
                probs[0] += delta
                probs[1] -= delta
            return PmfTable(params=params, probabilities=tuple(probs))

        monkeypatch.setattr(checks, "pmf_table", corrupted_table)
        results = checks.run_all(8)
        oracle = results[0]
        assert not oracle.ok
        assert "total=7" in oracle.failures[0]
        assert "good=2" in oracle.failures[0]
        assert "n=1" in oracle.failures[0]

    def test_failure_messages_are_csv_safe(self, monkeypatch):
        from urndist.exact import pmf_table as real

        def corrupted_table(params):
            table = real(params)
            probs = list(table.probabilities)
            if params.total == 5 and params.good == 2:
                probs[0], probs[1] = probs[1], probs[0]
            return PmfTable(params=params, probabilities=tuple(probs))

        monkeypatch.setattr(checks, "pmf_table", corrupted_table)
        for result in checks.run_all(6):
            for message in result.failures:
                assert "," not in message
