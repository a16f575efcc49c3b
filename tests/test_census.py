import concurrent.futures
import io
import json
import os
from pathlib import Path

import pytest

from cytk.census import (
    N3,
    N4,
    NormalizedRecord,
    RawRecord,
    census_lines,
    denormalize,
    normalize,
    parse_database,
    run_census,
    verdicts_as_json,
    write_csv,
)

PERFBENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"

SAMPLE = [
    "5 1 1 1 1 1",
    "120 3 7 20 40 50",
    "1734 91 96 102 578",
]


class TestParseDatabase:
    def test_four_weight_record(self):
        records, failures = parse_database(["1734 91 96 102 578"])
        assert failures == []
        assert records == [RawRecord(1734, (91, 96, 102, 578), 1)]

    def test_five_weight_record(self):
        records, _ = parse_database(["120 3 7 20 40 50"])
        assert records == [RawRecord(120, (3, 7, 20, 40, 50), 1)]

    def test_comments_and_blanks_skipped(self):
        records, failures = parse_database(["# comment", "", "  ", "5 1 1 1 1 1"])
        assert len(records) == 1 and records[0].source_line == 4
        assert failures == []

    def test_trailing_tokens_ignored(self):
        records, failures = parse_database(["120 3 7 20 40 50 # nice one"])
        assert records == [RawRecord(120, (3, 7, 20, 40, 50), 1)]
        assert failures == []

    def test_bad_lines_collected_not_fatal(self):
        records, failures = parse_database(
            ["junk", "5 1 1", "8 1 1 1 1 1 1 1", "5 1 1 1 1 1"]
        )
        assert len(records) == 1
        assert [line for line, _ in failures] == [1, 2, 3]

    def test_odd_degree_four_weights_rejected(self):
        _, failures = parse_database(["9 1 1 3 4"])
        assert len(failures) == 1

    def test_trivial_variable_rejected(self):
        _, failures = parse_database(["10 1 2 2 5"])
        assert "d/2" in failures[0][1]


class TestNormalize:
    def test_appends_half_degree(self):
        nr = normalize(RawRecord(1734, (91, 96, 102, 578), 1))
        assert nr.ws.weights == (91, 96, 102, 578, 867)
        assert nr.origin == N3

    def test_five_weights_pass_through(self):
        nr = normalize(RawRecord(120, (3, 7, 20, 40, 50), 1))
        assert nr.ws.weights == (3, 7, 20, 40, 50)
        assert nr.origin == N4

    def test_small_example(self):
        nr = normalize(RawRecord(10, (1, 1, 1, 2), 1))
        assert nr.ws.weights == (1, 1, 1, 2, 5)

    def test_wrong_sum_rejected(self):
        with pytest.raises(ValueError):
            normalize(RawRecord(8, (1, 1, 1, 2), 1))

    def test_round_trip(self):
        for raw in (
            RawRecord(1734, (91, 96, 102, 578), 3),
            RawRecord(120, (3, 7, 20, 40, 50), 4),
        ):
            assert denormalize(normalize(raw)) == raw

    def test_distinct_records_stay_distinct(self):
        a = normalize(RawRecord(1734, (91, 96, 102, 578), 1))
        b = NormalizedRecord(a.ws, N4, 1)
        assert a != b


def normalized_sample():
    records, failures = parse_database(SAMPLE)
    assert not failures
    return [normalize(r) for r in records]


class TestRunCensus:
    def test_three_record_sample(self):
        summary, verdicts = run_census(normalized_sample())
        assert summary.total == 3
        assert summary.not_smooth_codim2 == 2
        assert summary.not_smooth_codim2_and_no_edge == 2
        assert summary.failures == ()
        assert [v.smooth_in_codim2 for v in verdicts] == [True, False, False]

    def test_empty_input(self):
        summary, verdicts = run_census([])
        assert (summary.total, summary.not_smooth_codim2) == (0, 0)
        assert summary.not_smooth_codim2_and_no_edge == 0
        assert verdicts == []

    def test_failures_are_counted(self):
        summary, _ = census_lines(["14 1 1 4 4 4"])  # not quasismooth
        assert summary.total == 1
        assert any("quasismooth" in reason for _, reason in summary.failures)

    def test_normalize_failures_are_reported(self):
        summary, _ = census_lines(["9 1 1 3 3 7"])  # degree is not the sum
        assert summary.total == 0
        assert len(summary.failures) == 1

    def test_parallel_output_identical(self):
        records = normalized_sample() * 30
        buffers = []
        for jobs in (1, 8):
            summary, verdicts = run_census(records, jobs=jobs)
            out = io.StringIO()
            write_csv(verdicts, out)
            buffers.append((summary, out.getvalue()))
        assert buffers[0] == buffers[1]

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, [])])
    def test_workers_bounded_by_cpu_count(self, monkeypatch, cpus, pools):
        real_pool = concurrent.futures.ProcessPoolExecutor
        sizes = []

        def recording_pool(max_workers, **kwargs):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
        records = normalized_sample() * 30
        assert run_census(records, jobs=8) == run_census(records, jobs=1)
        assert sizes == pools

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ks_list_gives_golden_verdicts(self, jobs):
        lines = (PERFBENCH_DATA / "kreuzer_skarke_wp4.txt").read_text(encoding="utf-8")
        _, verdicts = census_lines(lines.splitlines(), jobs=jobs)
        out = io.StringIO()
        write_csv(verdicts, out)
        golden = (PERFBENCH_DATA / "golden_verdicts.csv").read_bytes()
        assert out.getvalue().encode("utf-8") == golden


class TestExports:
    def test_csv_shape(self):
        summary, verdicts = run_census(normalized_sample())
        out = io.StringIO()
        write_csv(verdicts, out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("line,degree,w0")
        assert "1/10(1,9)" in lines[2]

    def test_json_round_trip(self):
        summary, verdicts = run_census(normalized_sample())
        document = verdicts_as_json(summary, verdicts)
        text = json.dumps(document, sort_keys=True, indent=2)
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text
        assert document["summary"]["total"] == 3

    def test_verdict_values_match_module_predicates(self):
        from cytk import hypersurface
        from cytk.wps import is_wellformed_hypersurface

        _, verdicts = run_census(normalized_sample())
        for record, verdict in zip(normalized_sample(), verdicts):
            assert verdict.wellformed == is_wellformed_hypersurface(record.ws)
            assert verdict.quasismooth == hypersurface.is_quasismooth(record.ws)
            assert verdict.calabi_yau == hypersurface.is_calabi_yau_degree(record.ws)


class TestDatabase:
    def test_database_counts(self, database_lines):
        if database_lines is None:
            pytest.skip("database file not present")
        summary, _ = census_lines(database_lines, jobs=1)
        assert summary.total == 7555
        assert summary.not_smooth_codim2 == 7238
        assert summary.not_smooth_codim2_and_no_edge == 2409
        assert summary.failures == ()
