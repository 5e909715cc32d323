"""The traced benchmark reads prslab spans by name; a refactor that drops
one must fail here, not only in a traced benchmark run.  perfbench/ is
imported as it is and not changed."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import jobs
    import tracer

    return jobs, tracer


def traced(jobs, tracer, workload, labels):
    """A recorder holding one traced run of the workload's jobs with these labels."""
    job_list = [job for job in jobs.WORKLOADS[workload](1) if job.label in labels]
    assert {job.label for job in job_list} == labels
    recorder = tracer.Recorder()
    with recorder.patched():
        for job in job_list:
            with recorder.job(job.label):
                job.run()
    return recorder


@pytest.mark.parametrize("workload", [
    "exact_pairing", "exhaustive_bruteforce", "sampled_keyed", "lemma_checks",
])
def test_baseline_rows_find_their_spans(perfbench, workload):
    jobs, tracer = perfbench
    wanted = [row for row in tracer.BASELINE_ROWS if row[1] == workload]
    recorder = traced(jobs, tracer, workload, {row[2] for row in wanted})
    rows = tracer.baseline_rows(recorder, workload)
    assert [row["row"] for row in rows] == [row[0] for row in wanted]
    assert all(row["measured_s"] > 0 for row in rows)


def test_traced_census_times_recombine(perfbench):
    jobs, tracer = perfbench
    recorder = traced(jobs, tracer, "lemma_checks", {"good-census n=4 i=1 t=3"})
    assert tracer.layer_metrics(recorder)["combinatorics.recombine_s"][0] > 0
