"""Every `band` CSV and `sample` dump in ``digests.json`` keeps its bytes, at 1
and 2 workers, under the numpy and scipy versions it was recorded with."""

import pytest

import digests

RECORDED = digests.load()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", digests.cases())
def test_output_bytes_match_the_recorded_digest(case, workers, tmp_path):
    table = RECORDED.get(digests.version_key())
    if table is None:
        pytest.skip(f"bit check did not run: no digests recorded for "
                    f"{digests.version_key()} (recorded: {', '.join(sorted(RECORDED))})")
    assert digests.digest(case, workers, tmp_path) == table[case]


def test_every_case_is_recorded_for_each_version():
    assert RECORDED, "digests.json holds no versions"
    for key, table in RECORDED.items():
        assert sorted(table) == sorted(digests.cases()), key
