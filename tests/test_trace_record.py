"""SB round tracing."""

import pytest

from repro.core import MatchingProblem, RoundRecorder, RoundTrace, SkylineMatcher
from repro.data import generate_independent
from repro.prefs import generate_preferences


def traced_run(nf=25):
    objects = generate_independent(400, 3, seed=270)
    functions = generate_preferences(nf, 3, seed=271)
    problem = MatchingProblem.build(objects, functions)
    recorder = RoundRecorder()
    matcher = SkylineMatcher(problem, on_round=recorder)
    matching = matcher.run()
    return matching, matcher, recorder


def test_trace_covers_every_round_and_pair():
    matching, matcher, recorder = traced_run()
    assert len(recorder) == matcher.rounds
    assert recorder.total_pairs == len(matching)
    assert [trace.round for trace in recorder.rounds] == list(
        range(matcher.rounds)
    )


def test_trace_pairs_match_emitted_pairs():
    matching, _, recorder = traced_run()
    from_trace = {
        (fid, oid)
        for trace in recorder.rounds
        for fid, oid, _score in trace.pairs
    }
    assert from_trace == matching.as_set()


def test_trace_functions_remaining_decreases_to_zero():
    _, _, recorder = traced_run()
    remaining = [trace.functions_remaining for trace in recorder.rounds]
    assert all(a > b for a, b in zip(remaining, remaining[1:]))
    assert remaining[-1] == 0


def test_trace_skyline_size_at_least_pairs_emitted():
    _, _, recorder = traced_run(nf=40)
    for trace in recorder.rounds:
        assert trace.skyline_size >= trace.pairs_emitted


def test_trace_summary_and_empty_recorder():
    _, _, recorder = traced_run()
    text = recorder.summary()
    assert "rounds=" in text and "pairs=" in text
    assert RoundRecorder().summary() == "RoundRecorder(empty)"


def test_round_trace_is_frozen():
    trace = RoundTrace(0, 5, ((1, 2, 0.5),), 4, 10)
    with pytest.raises(AttributeError):
        trace.round = 3
    assert trace.pairs_emitted == 1
