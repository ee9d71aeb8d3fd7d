"""The paper's Figure 1, step by step.

An annotated replay of the worked example from the paper: 13 objects
(a..m) in 2-D, two linear preference functions, and the SB algorithm's
exact trace — initial skyline {a, e}, first stable pair (f1, e), updated
skyline {a, c, d, i}, second pair (f2, d).

Run with::

    python examples/figure1_walkthrough.py
"""

from repro import MatchingConfig
from repro.core import RoundRecorder
from repro.data import Dataset
from repro.engine import create_matcher, get_backend
from repro.prefs import LinearPreference
from repro.skyline import compute_skyline

POINTS = {
    "a": (0.05, 0.95), "b": (0.30, 0.60), "c": (0.35, 0.78),
    "d": (0.60, 0.70), "e": (0.75, 0.80), "f": (0.50, 0.55),
    "g": (0.10, 0.72), "h": (0.20, 0.68), "i": (0.73, 0.42),
    "j": (0.65, 0.30), "k": (0.70, 0.20), "l": (0.40, 0.35),
    "m": (0.55, 0.10),
}
LETTERS = sorted(POINTS)
NAME = {index: letter for index, letter in enumerate(LETTERS)}

F1 = LinearPreference(1, (0.3, 0.7))
F2 = LinearPreference(2, (0.6, 0.4))


def main() -> None:
    objects = Dataset([POINTS[letter] for letter in LETTERS], name="figure1")
    config = MatchingConfig(algorithm="sb")
    problem = get_backend(config.backend).build_problem(
        objects, [F1, F2], config
    )

    print("Objects (the 13 points of Figure 1):")
    for letter in LETTERS:
        print(f"  {letter} = {POINTS[letter]}")
    print(f"\nFunctions: f1 weights {F1.weights}, f2 weights {F2.weights}")

    state = compute_skyline(problem.tree)
    names = sorted(NAME[oid] for oid in state.ids())
    print(f"\nStep 1 — ComputeSkyline: Osky = {{{', '.join(names)}}}")
    print(
        f"  only {len(state)} x 2 = {len(state) * 2} function-object pairs "
        f"need comparing (instead of 13 x 2 = 26)"
    )
    for oid in state.ids():
        parked = len(state.plist(oid))
        print(f"  skyline object {NAME[oid]} owns {parked} pruned entries")

    print("\nStep 2 — iterate BestPair + UpdateSkyline:")
    recorder = RoundRecorder()
    # create_matcher forwards extra keywords (like the trace hook)
    # straight to the algorithm's constructor.
    matcher = create_matcher(config.algorithm, problem, config,
                             on_round=recorder)
    for pair in matcher.pairs():
        fname = f"f{pair.function_id}"
        print(
            f"  round {pair.round}: stable pair ({fname}, "
            f"{NAME[pair.object_id]}) with score {pair.score:.3f}"
        )

    print(f"\nTrace summary: {recorder.summary()}")
    print("Matches the paper's narrative: (f1, e) first, then skyline")
    print("update to {a, c, d, i}, then (f2, d).")


if __name__ == "__main__":
    main()
