#!/usr/bin/env python3
"""Tests for tools/perfbench_gate.py: python3 tools/perfbench_gate_test.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfbench_gate  # noqa: E402


class IsCorrectTest(unittest.TestCase):
    def test_last_line_decides(self):
        out = 'digest: abc\n{"correct": true, "attempted": 5, "failed": 0}\n'
        self.assertTrue(perfbench_gate.is_correct(out))
        out = '{"correct": true}\n{"correct": false, "attempted": 5}\n'
        self.assertFalse(perfbench_gate.is_correct(out))

    def test_anything_else_fails(self):
        self.assertFalse(perfbench_gate.is_correct(""))
        self.assertFalse(perfbench_gate.is_correct('{"correct": true}\nrun.py: build failed\n'))
        self.assertFalse(perfbench_gate.is_correct('{"correct": "true"}\n'))
        self.assertFalse(perfbench_gate.is_correct('[true]\n'))


if __name__ == "__main__":
    unittest.main()
