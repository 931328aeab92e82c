"""The command line prints what tests/golden.json records, byte for byte:
every benchmark job of seed 0 and every README call. ``tests/golden.py
--check`` runs seeds 0-3 as well."""

import golden


def test_seed_0_jobs_and_readme_calls_match_the_golden_file():
    assert golden.check((0,)) == []
