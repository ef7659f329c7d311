"""The self-verification sweeps behind `urn check`."""

from fractions import Fraction

import pytest

from urndist import ParameterError, PmfTable, UrnParams
from urndist import checks, cli
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

    def test_force_keeps_a_work_bound(self, monkeypatch):
        # families and tables stubbed out: a forced sweep at the bound itself
        # takes minutes, and past it none may run
        calls = []
        for name in [n for n in vars(checks) if n.startswith("_check_")]:
            monkeypatch.setattr(checks, name, lambda *args: calls.append(1) or FamilyResult("stub"))
        monkeypatch.setattr(checks, "pmf_table", lambda params: None)
        assert len(checks.run_all(checks._FORCE_LIMIT, force=True)) == 6
        assert calls
        calls.clear()
        for max_total in (checks._FORCE_LIMIT + 1, 2 * 10**12):
            for force in (False, True):
                with pytest.raises(ResourceGuardError, match=str(checks._FORCE_LIMIT)):
                    checks.run_all(max_total, force=force)
        assert not calls

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
            nums = list(table.numerators)
            if params.total == 7 and params.good == 2 and len(nums) >= 2:
                nums[0] += 1
                nums[1] -= 1
            return PmfTable(params=params, numerators=tuple(nums),
                            denominator=table.denominator)

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
            nums = list(table.numerators)
            if params.total == 5 and params.good == 2:
                nums[0], nums[1] = nums[1], nums[0]
            return PmfTable(params=params, numerators=tuple(nums),
                            denominator=table.denominator)

        monkeypatch.setattr(checks, "pmf_table", corrupted_table)
        for result in checks.run_all(6):
            for message in result.failures:
                assert "," not in message

    def test_sweep_builds_fractions_per_urn_not_per_point(self, monkeypatch):
        # the tables are integers over C(total, good): a passing sweep builds
        # a few Fractions per urn (its moments), none per support point
        built = 0
        fraction_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return fraction_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        results = checks.run_all(30)
        assert all(r.ok for r in results)
        assert results[1].cases == 465
        assert built <= 20 * 465  # 9 per urn


class TestPinnedOutput:
    """The report as five separate per-family sweeps wrote it: the one
    sweep over the urns keeps every family's cases and first failure."""

    @pytest.mark.parametrize(
        "args, rows",
        [
            (("1",), "pmf-oracle,1,0,\nmoments,1,0,\nnormalization-cdf,1,0,\n"
                     "pmf-shape,1,0,\nmedian,1,0,\nlemma-sums,7,0,\n"),
            (("6",), "pmf-oracle,21,0,\nmoments,21,0,\nnormalization-cdf,21,0,\n"
                     "pmf-shape,21,0,\nmedian,21,0,\nlemma-sums,112,0,\n"),
            (("12",), "pmf-oracle,78,0,\nmoments,78,0,\nnormalization-cdf,78,0,\n"
                      "pmf-shape,78,0,\nmedian,78,0,\nlemma-sums,546,0,\n"),
            (("30",), "pmf-oracle,210,0,\nmoments,465,0,\nnormalization-cdf,465,0,\n"
                      "pmf-shape,465,0,\nmedian,465,0,\nlemma-sums,5952,0,\n"),
            (("22", "--force"),
             "pmf-oracle,210,0,\nmoments,253,0,\nnormalization-cdf,253,0,\n"
             "pmf-shape,253,0,\nmedian,253,0,\nlemma-sums,2576,0,\n"),
        ],
        ids=["1", "6", "12", "30", "22-force"],
    )
    def test_check_csv_pinned(self, capsys, args, rows):
        cli.main(["check", "--max-n", *args])
        assert capsys.readouterr().out == "family,cases,failures,first_failure\n" + rows

    def test_first_failures_at_different_urns_pinned(self, monkeypatch):
        # moments fails at (21, 3) on a wrong mean, normalization-cdf at
        # (22, 5) on a wrong total mass and pmf-shape at (24, 2) on two
        # swapped entries; each family stops at its own first failure and
        # the others sweep on
        from urndist.exact import pmf_table as real

        class MeanOff(PmfTable):
            def mean(self):
                return super().mean() + Fraction(1, 1000)

        class MassOff(PmfTable):
            def total_mass(self):
                return 2 * super().total_mass()

        def corrupted_table(params):
            urn = (params.total, params.good)
            exact = real(params)
            nums = list(exact.numerators)
            if urn == (24, 2):
                nums[0], nums[1] = nums[1], nums[0]
            table = {(21, 3): MeanOff, (22, 5): MassOff}.get(urn, PmfTable)
            return table(params=params, numerators=tuple(nums),
                         denominator=exact.denominator)

        monkeypatch.setattr(checks, "pmf_table", corrupted_table)
        results = [(r.name, r.cases, r.failures) for r in checks.run_all(26)]
        assert results == [
            ("pmf-oracle", 210, []),
            ("moments", 213, ["mean mismatch at total=21 good=3: "
                              "sum n*P(n) = 5501/1000 vs closed form 11/2"]),
            ("normalization-cdf", 236, ["pmf does not sum to 1 at total=22 good=5: 2"]),
            ("pmf-shape", 278, ["pmf shape violated at total=24 good=2 n=1"]),
            ("median", 351, []),
            ("lemma-sums", 4032, []),
        ]
