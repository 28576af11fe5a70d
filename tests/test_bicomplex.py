import pytest

from qdc import cli
from qdc.calculus import CalculusError, GridSplit, assemble
from qdc.forms import GradeCapError
from qdc.functionals import SECTORS
from qdc.bicomplex import BicomplexGrid, cartan_check, grid_check


EXPECTED_CELLS = {
    (0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1,
    (1, 0): 1, (1, 1): 3, (1, 2): 3,
}


class TestGrid:
    def test_cell_dimensions(self, calc):
        grid = BicomplexGrid(calc)
        for (r, s), dim in EXPECTED_CELLS.items():
            assert grid.dim(r, s) == dim, (r, s)

    def test_additivity(self, calc):
        grid = BicomplexGrid(calc)
        wedge_dims = calc.space.table.dimensions()
        for k in range(1, 4):
            assert wedge_dims[k] == grid.dim(0, k) + grid.dim(1, k - 1)

    def test_grade_one_split(self, calc):
        grid = BicomplexGrid(calc)
        assert calc.space.table.dimension(1) == 4
        assert grid.dim(0, 1) + grid.dim(1, 0) == 4
        assert grid.dim(1, 0) == 1   # the canonical line

    def test_grade_zero_marker(self, calc):
        grid = BicomplexGrid(calc)
        assert grid.cells[(0, 0)].get("marker") == "grade-0"

    def test_termination_grade_reported(self, calc):
        grid = BicomplexGrid(calc)
        out = grid.as_dict()
        assert out["first_empty_grade"] == 5

    def test_grid_check_report(self, calc):
        assert grid_check(calc).passed()

    def test_a_grade_that_does_not_split_is_refused(self, monkeypatch,
                                                    capsys):
        # the additivity-grade-k laws never see a failing grade: the split
        # refuses it before grid_check reads the cells.  With one
        # complement letter dropped before a fresh split is built, grade 1
        # has 2 + 1 of its 4 words.
        calc = assemble()
        basis = calc.space.basis
        monkeypatch.setattr(basis, "complement", basis.complement[:-1])
        monkeypatch.setattr(calc, "grid", GridSplit(calc))
        error = "grade 1 does not split: 2 + 1 != 4"
        with pytest.raises(CalculusError) as err:
            grid_check(calc)
        assert str(err.value) == error
        monkeypatch.setattr(cli, "build_calculus", lambda cfg: calc)
        assert cli.run(["bicomplex"]) == 2
        assert capsys.readouterr().err == "error: %s\n" % error

    def test_basis_labels_syntactic(self, calc):
        grid = BicomplexGrid(calc)
        for label in grid.cells[(1, 1)]["basis"]:
            assert label.endswith(" /\\ X")
        for label in grid.cells[(0, 2)]["basis"]:
            assert "X" not in label


class TestCartan:
    @pytest.mark.parametrize("choice", ["trace", "counit"])
    def test_all_conditions(self, calc, choice):
        report = cartan_check(calc, degree=2, samples=8)[SECTORS.index(choice)]
        assert report.passed(), report.render()
        assert {e.law for e in report.entries} == \
            {"d-squared", "partial-squared", "delta-squared", "anticommute"}

    def test_negative_control_breaks(self, calc):
        report, _ = cartan_check(SwappedRows(calc), degree=1, samples=0)
        assert not report.passed()
        failing = [e for e in report.entries if e.status == "fail"]
        assert failing and all(e.witness for e in failing)
        assert any(e.law in ("partial-squared", "anticommute")
                   for e in failing)

    def test_law_with_no_instance_fails(self, calc):
        reports = cartan_check(AtGradeCap(calc), degree=1, samples=0)
        inputs = len(calc.qg.rs.normal_words(1)) + calc.space.M
        assert len(reports) == 2
        for report in reports:
            assert not report.passed()
            assert [(e.status, e.witness) for e in report.entries] == \
                [("fail", "no instance evaluated (%d skipped)" % inputs)] * 4


    def test_three_splits_per_input(self, calc, monkeypatch):
        # (partial x, delta x) from one split, then one split of each part:
        # all four conditions of both reports read those values
        calls = []
        split_d = type(calc).split_d

        def counted(self, x):
            calls.append(x)
            return split_d(self, x)

        monkeypatch.setattr(type(calc), "split_d", counted)
        reports = cartan_check(calc, degree=2)
        assert len(reports) == 2
        for report in reports:
            assert report.passed(), report.render()
        inputs = len(calc.qg.rs.normal_words(2)) + calc.space.M
        assert 0 < len(calls) <= 3 * inputs


class AtGradeCap:
    """A calculus whose d, partial, delta and split_d raise GradeCapError on
    every input, so that no split condition evaluates anything."""

    def __init__(self, calc):
        self._calc = calc

    def __getattr__(self, name):
        return getattr(self._calc, name)

    def d(self, x):
        raise GradeCapError("every input is at the grade cap")

    partial = delta = split_d = d


class SwappedRows:
    """A misassembled splitting: partial and delta take row 1 and row 0 of
    d(x), with J and Jperp exchanged and without the row bookkeeping; the
    squares must then fail."""

    def __init__(self, calc):
        self._calc = calc

    def __getattr__(self, name):
        return getattr(self._calc, name)

    def split_d(self, x):
        row0, row1 = self.grid.split_component(self.d(x))
        return row1, row0

    def partial(self, x):
        return self.grid.split_component(self.d(x))[1]

    def delta(self, x):
        return self.grid.split_component(self.d(x))[0]
