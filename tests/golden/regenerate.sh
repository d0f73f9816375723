#!/bin/sh
# Rewrite the frozen output corpus (tests/golden/*) from the current code.
cd "$(dirname "$0")/../.." && PYTHONPATH=src python3 tests/test_golden.py
