"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_subset_runs_and_exits_zero(self, capsys):
        code = main(["E07"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E07" in out
        assert "1/1 claims hold" in out

    def test_verbose_prints_values(self, capsys):
        code = main(["E13", "--verbose"])
        out = capsys.readouterr().out
        assert code == 0
        assert "five_nines_downtime_minutes" in out

    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["E99"])

    def test_comma_separated_selection(self, capsys):
        code = main(["E07,E13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 claims hold" in out

    def test_mixed_comma_and_space_selection(self, capsys):
        code = main(["E07,E13", "E01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 claims hold" in out

    def test_exec_report_line_printed(self, capsys):
        main(["E13"])
        out = capsys.readouterr().out
        assert "-- exec:" in out
        assert "1 succeeded" in out

    def test_parallel_jobs_flag(self, capsys):
        code = main(["E01,E13", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 claims hold" in out

    def test_cache_flag_warm_rerun(self, tmp_path, capsys):
        assert main(["E13", "--cache", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["E13", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache 1 hit / 0 miss" in out

    def test_verbose_includes_job_report(self, capsys):
        main(["E13", "--verbose"])
        out = capsys.readouterr().out
        assert "Per-job execution report:" in out
        assert "succeeded" in out

    def test_bad_flag_values_rejected(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "0"])
        with pytest.raises(SystemExit):
            main(["--retries", "-1"])
        with pytest.raises(SystemExit):
            main(["--timeout", "0"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "x"])
    def test_timeout_must_be_a_finite_positive_number(self, value, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["E13", "--timeout", value])
        assert exc_info.value.code == 2
        assert "must be a finite number > 0" in capsys.readouterr().err
