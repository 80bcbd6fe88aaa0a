"""Golden stdout for every subcommand in every format it accepts.

Each row is an invocation, its exit status and the sha256 of its stdout,
recorded from an earlier implementation: the rows up to the empty plot
range before the subcommand handlers were rebound, the rest before the
real-root layer moved from Fraction to integer arithmetic. A change that
alters any byte of output or any exit status fails here. "{cache}" stands for a solution cache that the search row
with --cache writes, and that the verify rows read.
"""

import hashlib

import pytest

from pascalrepeats.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()
CACHE_SEARCH = "search --a 1 --b 1 --y-max 60 --cache {cache}"
CACHE_SHA = "45213d08d0717e1051fbff54182c89541737ea1b614afe5cd041f0b9fe60feb5"

GOLDEN = [
    ("zeta --a 1 --b 1", 0, "15a09908e514cc1b097a7061c01d1e6ccaf04f5f9abfd9c19d4c477058112099"),
    ("zeta --a 2 --b 1 --format json", 0, "dd6e6fb945f26ed23c27347dab30af911c0d8c09c627040dae504826ccb5778e"),
    ("zeta --a 3 --b 2 --precision 1/128", 0, "9c7de0c6d1f9f211c388bb41a9b08ba4d06849ffe30b5d3811df9e5c45206498"),
    ("zeta --a 1 --b 1 --precision 1e-40 --format json", 0, "b04d2472765a126d79f844fd274937def58fe4d822991062c5a46db7d80ee8e1"),
    ("zeta --a 1 --b 1 --format csv", 1, EMPTY),
    ("search --a 1 --b 1 --y-max 300", 0, "9bd00a8d1fee8c72b35bd892822114c799e7357c00aa1cdd926fbfbbf07ddb51"),
    ("search --a 1 --b 1 --y-max 300 --format json", 0, "d4f8a2c993f8e0fbf50e849dfbe7ddec3f1a8a419672ff359bdb885f3e3bf501"),
    ("search --a 1 --b 1 --y-max 300 --format csv", 0, "d6806b205a6f94bb3130e30529868748784889debd9ed06ad826551162c9206e"),
    ("search --a 1 --b 1 --y-max 300 --workers 2 --format json", 0, "d4f8a2c993f8e0fbf50e849dfbe7ddec3f1a8a419672ff359bdb885f3e3bf501"),
    ("search --a 2 --b 3 --y-max 80 --format csv", 0, "9698cdedd591c7d07c1c7da2006dd615e617b96ceb0f269d5e5d73c35ce568cd"),
    ("search --a 0 --b 1 --y-max 10", 1, EMPTY),
    ("search --a 1 --b 1 --y-max 60 --cache {cache}", 0, "979e9762cff4ade13f56cd05745f70f8bede4b7b05c0d3d06f2ab1d53f6afadf"),
    ("search --a 1 --b 1 --y-max 300 --workers 7 --format json", 0, "d4f8a2c993f8e0fbf50e849dfbe7ddec3f1a8a419672ff359bdb885f3e3bf501"),
    ("family --i-max 3", 0, "6ec4acddb9351e81cf1c23ff5b29f600e503b2913aa7c8e7e331779ee043a509"),
    ("family --i-max 3 --format json", 0, "212915d58b4ea89fe2123f7376f717464ba745f543ec128e247917007c75068d"),
    ("family --i-max 3 --format csv", 0, "bcd5df780540547ee5124ba287b403aba885e37dd292b0e6f1d444c4af36ffb7"),
    ("family --i-max 0", 1, EMPTY),
    ("curve --a 1 --b 1", 0, "b96c742c71304d0969b6fad20c89fda9a5f215cddb111f8619c47d1703ee1afd"),
    ("curve --a 1 --b 2 --format json", 0, "1cf3f35ac29d5726fc93b2f1c4aaddd7734a3c532c3abd111cb6a7f54cbaf9e6"),
    ("curve --a 2 --b 2 --certify", 0, "da8a4edd8800ebb8dac07e66ab593c24ef687fc1f8f857ca4a0e9ed356eccf11"),
    ("curve --a 2 --b 2 --certify --format json", 0, "83046889d4b8b75a5aa42d44cb697484eb273321bd9a53bf141779672eb866eb"),
    ("curve --a 1 --b 2 --format csv", 1, EMPTY),
    ("census --t 3003", 0, "0b2d70567492fb766f7adbd95af85295c7378f049fda95b940b23c4f7d641b2f"),
    ("census --t 3003 --format json", 0, "7b62e8d081b50d0af9f09f7585ebbc62a356f587cbb63f1ce0fefa95fb341da3"),
    ("census --t 3003 --format csv", 0, "b8a71cea57d905ba9c95d01f51489083a0901eb5d850d1752964b2af33b3da2d"),
    ("census --t-max 100000 --m-min 4", 0, "acfc96ee5b572de56a3c1813fdd2d310153e8bc76416499f34cc4c44c99aa615"),
    ("census --t-max 100000 --m-min 4 --format json", 0, "59942b1accd5e938c7961d674e423fd98353d64cabfbc4f4c5178b7db83308c2"),
    ("census --t-max 100000 --m-min 4 --format csv", 0, "9faf78b91ce0f2727b812885261345f4b2159bbc6b2f6d93321d4ff2c53e9774"),
    ("census", 1, EMPTY),
    ("census --t 120 --t-max 100 --m-min 4", 1, EMPTY),
    ("census --t-max 100", 1, EMPTY),
    ("census --t 1", 1, EMPTY),
    ("intersect --a1 1 --b1 1 --a2 1 --b2 3 --x-max 100", 0, "7a058f6706367feb7a42d7a415345cf531008b6238ade1023a5438ee3dd97b6c"),
    ("intersect --a1 1 --b1 1 --a2 1 --b2 3 --x-max 100 --format json", 0, "a7178f9f24ab600ccc13e9743cff103534729ba7dfe9fed236af0b8dc633f36c"),
    ("intersect --a1 1 --b1 1 --a2 1 --b2 3 --x-max 100 --format csv", 0, "e3327fb368946d29fd1d9dc43059ba6c77da8b64de43bc4f5267906eaf69526e"),
    ("verify --cache {cache}", 0, "f919feee8803970a730b0b1192d6fc13524b5ed4aa317696ccffaf9eb46f5cde"),
    ("verify --cache {cache} --format json", 0, "e4d0ffa409d6a763667d03b9cc47f87a2ed68a896e9acd31ea2dc75a69186a4e"),
    ("verify --cache {cache} --format csv", 1, EMPTY),
    ("plot --a 1 --b 1 --y-min 0 --y-max 5", 0, "a3afdd53bbf0fe0f4ed87afecfa62e1c221dd05e0b771f32c1a82f3f0d9be4a3"),
    ("plot --a 1 --b 1 --y-min 0 --y-max 5 --format text", 0, "a3afdd53bbf0fe0f4ed87afecfa62e1c221dd05e0b771f32c1a82f3f0d9be4a3"),
    ("plot --a 1 --b 1 --y-min 0 --y-max 5 --format json", 0, "20fbdebcbe1795b59e8deae934a2ede2a4ac033b4bcd59bb4742bce69619c3f6"),
    ("plot --a 2 --b 1 --y-min 0 --y-max 2 --y-step 1/4", 0, "cb4a75d5ebe1b2137ac674ed8bca3fc3c934774b1b66c2065a0e627e43b53199"),
    ("plot --a 1 --b 1 --y-min 0 --y-max 1 --y-step 0.5 --precision 1e-5 --format json", 0, "40abd957f2442047a399c8893469282df3470f271096a030359708f3b222b70e"),
    ("plot --a 1 --b 1 --y-min 0 --y-max 1 --y-step 0", 1, EMPTY),
    ("plot --a 1 --b 1 --y-min 3 --y-max 1", 0, "d2bfa8c3b4ac482d2b479535516e63fd466c7fffa494e5b47cac180b50d56100"),
    ("plot --a 3 --b 2 --y-min -4 --y-max 40 --y-step 1/3 --precision 1e-40", 0, "d3f5564008c561af03b626e859b78c7ae1f088a0b95470b2c98bdae1123f07f1"),
    ("zeta --a 6 --b 6 --precision 1e-300", 0, "9ed4c0111da9c6d44e9b0bc6bfbed4516272802268810b8181b40a933bf22cc8"),
    ("curve --a 3 --b 3 --certify --format json", 0, "ac3ca8ebdc161178244e7277982499ecfaf5cc14c6b8e01a1d1fdfe7956c8181"),
    ("curve --a 1 --b 3 --certify", 0, "75dbcb6f7a50eab17c6940c772c7f70a52d25af8feb04ffe813b573f5a8aaf79"),
]


def _argv(case: str, cache: str) -> list[str]:
    return [cache if word == "{cache}" else word for word in case.split()]


@pytest.mark.parametrize("case,status,sha", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_stdout_and_exit_status(case, status, sha, tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    if case.startswith("verify"):
        assert main(_argv(CACHE_SEARCH, cache)) == 0
        capsys.readouterr()
    assert main(_argv(case, cache)) == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha
    if case == CACHE_SEARCH:
        with open(cache, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == CACHE_SHA
