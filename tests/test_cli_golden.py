"""Golden stdout for every subcommand in every format it accepts.

Each row is an invocation, its exit status and the sha256 of its stdout,
recorded from an earlier implementation: the rows up to the empty plot
range before the subcommand handlers were rebound, the next four before
the real-root layer moved from Fraction to integer arithmetic, and the
fine zeta and plot rows before the bisection took its Newton cell. The
certificates in JSON, of (2,2), (3,3) and (4,5), and the last row, of
(8,7), were recorded when the JSON form first printed the prime that
proved the affine verdict in place of the exact eliminants. The two refusals after
them print nothing: a decimal exponent beyond the parser's bound is a
usage error (exit 2), and more than a million plot sections a domain
error (exit 1), now refused by the plot's time estimate. The searches with --workers and the intersection of
(63,3) and (64,4) were recorded before each row's crossing was walked
from the rows before it, while --workers still split the rows among
processes: with two CPUs the second chunk of each search started cold,
at y = 251, at the solution row y = 272, and inside the rows y <= a.
Every search now runs in one process. The family index beyond 6 is
refused before any member is formed. The two searches to y = 10^30 were
recorded when proved blocks of rows first replaced the walk above its
first rows; they print only the trivial row y = 0, and the walk finds no
other solution of either shift up to y = 10^6. A y_max of 2^256 is refused before any row
is searched. A certificate of degree above 15 is refused before the
curve is built. The intersection to x_max = 2^256 - 1 was recorded
when intersect first ran the proved blocks of search; it prints what
the row to x_max = 100 prints, and an x_max of 2^256 is refused before
any row. A curve of degree above 160 is refused before it is built.
The census scan to 31,500,106,239,178 was recorded before scans were
bounded, when each record was found again by multiplicity; one more than
the scan's limit, 10^16 since the scan keeps its positions, is refused
before the tally. The empty census scan and the empty intersection in every
format were recorded before every list of records was written by one
writer; they pin the empty text, the csv header alone, "[]" and the
zero count. The plain curves of (40,40) in text and (13,27) in json were
recorded while F was still formed by multiplying its linear factors,
before build_curve wrote its terms out in closed form. The last six
rows were recorded while the Sturm chains were still UniPolys and the
walk split its brackets at Fractions: the plot of (3,2) on 0..300, two
plots whose sections have several roots, and searches and an
intersection whose blocks all lie below y = 2^20. The two refusals
after them print nothing: a search whose (a+b) * bits(y_max) exceeds
2048, and a plot whose (a+b)^2 * bits(max |y|) exceeds 10,000, each
refused before any row or section. The two after them print nothing as well:
100,000 sections of (1,1), whose estimated time exceeds 2 s, are refused
before any section, and zeta of (20,20) at 1e-100000, whose
(a+b) * bits(1/precision) exceeds 1,000,000, before any bisection. The
next three rows were recorded while certify still proved its affine
verdict from two eliminants, Res_y(F,F_x) and Res_y(F,F_y), and while a
continued plot section ran Newton at its goal precision from the first
step: the text certificates of (8,7) and (1,14), the largest degree
certify accepts, and five sections of (1,1) at 1e-10000. A change that
alters any byte of output or any exit status fails here. "{cache}"
stands for a solution cache that the search row with --cache writes,
and that the verify rows read.
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
    ("curve --a 2 --b 2 --certify --format json", 0, "2febc4d5ecbcfbad7cbfcc5c619d071462390b227e9dd4cf25732e8360dcdbfc"),
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
    ("curve --a 3 --b 3 --certify --format json", 0, "5b09ba66d7ef1ec6c4a7a33545d2bcbb3caae2199892512461a19a5e628f2b43"),
    ("curve --a 1 --b 3 --certify", 0, "75dbcb6f7a50eab17c6940c772c7f70a52d25af8feb04ffe813b573f5a8aaf79"),
    ("zeta --a 2 --b 10 --precision 1e-600", 0, "00b31cbcee5bf3437f68946bc6987b4d38e2fc718ac0ac624d45e25cfa370269"),
    ("zeta --a 1 --b 1 --precision 1e-1000 --format json", 0, "eda797802a1155fe9b0bbb53d346c2f18c6f36ae43cd45b00e0eb2c6deafbcb2"),
    ("plot --a 3 --b 2 --y-min 0 --y-max 20 --precision 1e-60", 0, "1902abce4653cc944bb44c5d107ada2184cb2a20d454072b21b9e041d0db1858"),
    ("curve --a 4 --b 5 --certify --format json", 0, "d40e5752dc0c5e988ee99f1b9f029d9245c1d6c8a242e02096b943c64c1e1b07"),
    ("zeta --a 1 --b 1 --precision 1e-100001", 2, EMPTY),
    ("plot --a 1 --b 1 --y-min 0 --y-max 1 --y-step 1e-6", 1, EMPTY),
    ("search --a 1 --b 1 --y-max 500 --workers 2", 0, "9bd00a8d1fee8c72b35bd892822114c799e7357c00aa1cdd926fbfbbf07ddb51"),
    ("search --a 1 --b 1 --y-max 543 --workers 2 --format json", 0, "d4f8a2c993f8e0fbf50e849dfbe7ddec3f1a8a419672ff359bdb885f3e3bf501"),
    ("search --a 63 --b 3 --y-max 100 --workers 2 --format csv", 0, "e9e04c3f8f5fc303045a80dd5f7c3789646e7b06fbcc2c0d8f475b41fc3be4a1"),
    ("intersect --a1 63 --b1 3 --a2 64 --b2 4 --x-max 80", 0, "06c76ae96a295a219072f66fac713c09346257ac0bdc79b4c0bf2c20c72ac04c"),
    ("family --i-max 7", 1, EMPTY),
    ("search --a 1 --b 2 --y-max 1000000000000000000000000000000", 0, "6fdd3bc11cf61d864367e9788e7d46f2f208ca6a9accfca4382e83e1bcf9d5cc"),
    ("search --a 2 --b 3 --y-max 1000000000000000000000000000000", 0, "d56ff14338ef53c4253fd3f810eefd15b72bca8269e21983d960dd64b726468e"),
    ("search --a 2 --b 3 --y-max 115792089237316195423570985008687907853269984665640564039457584007913129639936", 1, EMPTY),
    ("curve --a 8 --b 8 --certify --format json", 1, EMPTY),
    ("intersect --a1 1 --b1 1 --a2 1 --b2 3 --x-max 115792089237316195423570985008687907853269984665640564039457584007913129639935", 0, "7a058f6706367feb7a42d7a415345cf531008b6238ade1023a5438ee3dd97b6c"),
    ("intersect --a1 1 --b1 1 --a2 1 --b2 3 --x-max 115792089237316195423570985008687907853269984665640564039457584007913129639936", 1, EMPTY),
    ("curve --a 80 --b 81", 1, EMPTY),
    ("census --t-max 31500106239178 --m-min 6", 0, "decf0b8cad6b5a3e1e7887d77d248a0e01884fc8943daaf93032a84a725eeda9"),
    ("census --t-max 10000000000000001 --m-min 6", 1, EMPTY),
    ("census --t-max 100 --m-min 6", 0, EMPTY),
    ("census --t-max 100 --m-min 6 --format csv", 0, "7bf627c6333a6b7707432a1b25200d6eba6f77fad597c629d3fa0885a3747acd"),
    ("census --t-max 100 --m-min 6 --format json", 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("intersect --a1 1 --b1 2 --a2 1 --b2 3 --x-max 60", 0, "e0ec2daa5f7330e1e61dfd9d2c098e0686504139a770d7749b6573b84d721385"),
    ("intersect --a1 1 --b1 2 --a2 1 --b2 3 --x-max 60 --format csv", 0, "9c6536d38fa37da58fac066342747e6d20fdace12ab5b287cf04506f2afe95b0"),
    ("intersect --a1 1 --b1 2 --a2 1 --b2 3 --x-max 60 --format json", 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("curve --a 40 --b 40", 0, "d7ac124548a032b2bb37c6f65977667a24b2b7af21d1f4a0f5241439a6d5b933"),
    ("curve --a 13 --b 27 --format json", 0, "96a34855e58a3ad8b696fe0fad87ebfe676e6b7d7d2371e920f6141f3bccf210"),
    ("plot --a 3 --b 2 --y-min 0 --y-max 300", 0, "85e94c937a05f78f2f8b6936ba81791b0c8b89042f7b42952dd228dc0c6d117d"),
    ("plot --a 6 --b 6 --y-min 0 --y-max 20", 0, "2b1aa0fd8f7460cad5f65205bc90f0bf4f2c4ea15f08d5c9692d0397b7fde55d"),
    ("plot --a 1 --b 1 --y-min 0 --y-max 1 --y-step 1/200", 0, "64fa3243660120579948352571c10fdb308958b65d185e07249b0243160e61d5"),
    ("search --a 2 --b 3 --y-max 15050", 0, "d56ff14338ef53c4253fd3f810eefd15b72bca8269e21983d960dd64b726468e"),
    ("search --a 1 --b 1 --y-max 20000 --format json", 0, "e8836a712a709d2663c59544626aed2840086b202415eef3d33a3be41397de90"),
    ("intersect --a1 63 --b1 3 --a2 64 --b2 4 --x-max 100000", 0, "06c76ae96a295a219072f66fac713c09346257ac0bdc79b4c0bf2c20c72ac04c"),
    ("search --a 200000 --b 1 --y-max 1", 1, EMPTY),
    ("plot --a 20 --b 20 --y-min 0 --y-max 1000000 --y-step 1000", 1, EMPTY),
    ("plot --a 1 --b 1 --y-min 0 --y-max 1 --y-step 1/99999", 1, EMPTY),
    ("zeta --a 20 --b 20 --precision 1e-100000", 1, EMPTY),
    ("curve --a 8 --b 7 --certify", 0, "59860c3c560e87a03b40763219acc4a9041db9095bc1cb43ce0a8e20753099b4"),
    ("curve --a 1 --b 14 --certify", 0, "54e8b1fcc7992e81225537cd0e08979980f4e90650d1fdb4e2d919502c8803cd"),
    ("plot --a 1 --b 1 --y-min 5 --y-max 9 --precision 1e-10000", 0, "1f857959ddff6efa9c3f402efd6377fb348bca23d508f55f747256864cebaa97"),
    ("curve --a 8 --b 7 --certify --format json", 0, "757c757e4e792bcff269db3819730f363d673e6de90fade2a08242478d9a01e7"),
]


def _argv(case: str, cache: str) -> list[str]:
    return [cache if word == "{cache}" else word for word in case.split()]


@pytest.mark.parametrize("case,status,sha", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden_stdout_and_exit_status(case, status, sha, tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    if case.startswith("verify"):
        assert main(_argv(CACHE_SEARCH, cache)) == 0
        capsys.readouterr()
    try:
        code = main(_argv(case, cache))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha
    if case == CACHE_SEARCH:
        with open(cache, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == CACHE_SHA
