"""The run loop reports an operation that fails in a later round.

    python3 -m pytest perfbench/test_run.py -q
"""

import contextlib

import run
import workloads


class FakeRun:
    """Rounds of one timed call each; round ``fail_in`` raises, as a failing
    ``hetgp`` command does."""

    def __init__(self, fail_in):
        self.fail_in = fail_in
        self.rounds = 0
        self.attempted = self.failed = 0
        self.check_s = 0.0
        self.setup_samples = {"train_gpr_s": [(2.0, 1)]}

    def round(self):
        self.rounds += 1
        self.attempted += 1
        if self.rounds == self.fail_in:
            self.failed += 1
            raise workloads.Failure("hetgp predict exited 1")
        return {"predict_gpr_qps": [(5, self.rounds)]}, []

    def finish(self):
        return {"train_gpr_s": [(1.5, 1)]}, []


def _measure(fake, rounds):
    return run.measure(fake, rounds, lambda name: contextlib.nullcontext())


def test_all_rounds_pass():
    samples, walls, failures, _ = _measure(FakeRun(fail_in=0), 3)
    assert failures == [] and len(walls) == 3
    assert samples == {"train_gpr_s": [(2.0, 1), (1.5, 1)],
                       "predict_gpr_qps": [(5, 1), (5, 2), (5, 3)]}


def test_failure_in_a_later_round_is_a_failure():
    fake = FakeRun(fail_in=3)
    samples, walls, failures, _ = _measure(fake, 5)
    assert len(failures) == 1 and "round 3" in failures[0] and "exited 1" in failures[0]
    # the two whole rounds are kept; the broken one, the rest and the
    # closing refits are not
    assert len(walls) == 2 and fake.rounds == 3
    assert samples == {"train_gpr_s": [(2.0, 1)], "predict_gpr_qps": [(5, 1), (5, 2)]}
    assert (fake.attempted, fake.failed) == (3, 1)


def test_rounds_do_not_depend_on_speed():
    spec = workloads.WORKLOADS["s6-predict"]
    assert workloads.rounds_for(spec, 20) == round(20 / spec.round_s)
    assert workloads.rounds_for(workloads.WORKLOADS["s6-train"], 20) == 1
