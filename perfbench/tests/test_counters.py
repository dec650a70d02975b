"""Self-test: the deterministic work counters repeat exactly per seed.

    python3 -m unittest discover -s perfbench/tests

Builds like run.py does, then runs each workload's set-up twice at the
default seed and once at another seed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def counters(harness, chop, workload, seed):
    state = run.target_dir() / "perfbench" / "selftest"
    out = subprocess.run(
        [str(harness), "--workload", workload, "--seed", str(seed), "--counters",
         "--chop", str(chop), "--state-dir", str(state)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class CountersRepeat(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness, cls.chop = run.build()

    def test_same_seed_same_counters(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = counters(self.harness, self.chop, workload, 7)
                second = counters(self.harness, self.chop, workload, 7)
                self.assertTrue(first)
                self.assertEqual(first, second)

    def test_other_seed_does_work(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                got = counters(self.harness, self.chop, workload, 11)
                self.assertGreater(sum(got.values()), 0)


if __name__ == "__main__":
    unittest.main()
