"""Smoke test of the end-to-end benchmark.

Runs `perfbench/run.py --smoke`: every workload for a second or two on two
seeds, untraced and traced, each in its own process. It passes when every
metric BENCHMARK.json names is emitted with its unit and every output matches
the inline reference transcript.

    python3 -m unittest discover -s perfbench/tests
"""

import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


class SmokeTest(unittest.TestCase):
    def test_every_metric_emitted_and_outputs_match_reference(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=1800)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = [l for l in proc.stdout.splitlines() if l.startswith("smoke ")]
        self.assertEqual(len(lines), 3 * 2 * 2, proc.stdout)
        self.assertTrue(all(l.split(": ")[1].startswith("ok") for l in lines),
                        proc.stdout)


if __name__ == "__main__":
    unittest.main()
