"""The post-branch observation window rule (repro.profiling.windows) and
pins of everything the suite derives from it.

The unit cases state the rule; the digests pin its outputs on the 15
benchmarks (seed 0, 200 iterations): profile run 2's reconvergence
statistics over every executed conditional branch, plain and
loop-carried, and the dmp, loop-pred and offline-learned hint tables.
A change that moves any digest changes which CFM points the compiler
or the hint-free learner picks.
"""

import hashlib

import pytest

from repro.core.mergepoint import learn_hints_from_trace
from repro.profiling.diverge_selection import (
    SelectionThresholds,
    build_hint_table,
    candidate_branch_pcs,
    select_diverge_branches,
)
from repro.profiling.loop_selection import (
    merge_hint_tables,
    select_diverge_loop_branches,
)
from repro.profiling.profiler import collect_reconvergence, profile_trace
from repro.profiling.windows import ObservationWindows
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

OWN = 0x100


class _Sink:
    def __init__(self):
        self.closed = []

    def record_instance(self, side, first_seen):
        self.closed.append((side, dict(first_seen)))


class TestWindowRule:
    def test_records_first_appearance_distance(self):
        windows = ObservationWindows(budget=100)
        sink = _Sink()
        windows.open(sink, 1, OWN)
        for pc in (0x200, 0x300, 0x200):
            windows.observe(pc, 4)
        windows.flush()
        assert sink.closed == [(1, {0x200: 0, 0x300: 4})]

    def test_closes_when_its_own_block_runs_again(self):
        windows = ObservationWindows(budget=100)
        sink = _Sink()
        windows.open(sink, 0, OWN)
        windows.observe(0x200, 4)
        windows.observe(OWN, 4)
        # Closed without recording its own block.
        assert sink.closed == [(0, {0x200: 0})]
        windows.observe(0x300, 4)
        windows.flush()
        assert sink.closed == [(0, {0x200: 0})]

    def test_loop_carried_window_records_own_block_and_stays_open(self):
        windows = ObservationWindows(budget=100, allow_loop_carried=True)
        sink = _Sink()
        windows.open(sink, 1, OWN)
        windows.observe(OWN, 4)
        windows.observe(0x200, 4)
        assert sink.closed == []
        windows.flush()
        assert sink.closed == [(1, {OWN: 0, 0x200: 4})]

    def test_block_that_uses_up_the_budget_is_recorded(self):
        windows = ObservationWindows(budget=10)
        sink = _Sink()
        windows.open(sink, 1, OWN)
        windows.observe(0x200, 6)
        windows.observe(0x300, 6)  # crosses the budget: recorded, closes
        assert sink.closed == [(1, {0x200: 0, 0x300: 6})]
        windows.observe(0x400, 6)  # already closed: not recorded
        windows.flush()
        assert sink.closed == [(1, {0x200: 0, 0x300: 6})]

    def test_flush_closes_what_is_left_oldest_first(self):
        windows = ObservationWindows(budget=100)
        sink = _Sink()
        windows.open(sink, 0, OWN)
        windows.observe(0x200, 4)
        windows.open(sink, 1, 0x180)
        windows.observe(0x300, 4)
        windows.flush()
        windows.flush()  # nothing is left open
        assert sink.closed == [(0, {0x200: 0, 0x300: 4}), (1, {0x300: 0})]

    def test_windows_close_independently(self):
        windows = ObservationWindows(budget=8)
        early, late = _Sink(), _Sink()
        windows.open(early, 0, OWN)
        windows.observe(0x200, 4)
        windows.open(late, 1, 0x180)
        windows.observe(0x300, 4)  # early's budget is spent
        assert early.closed == [(0, {0x200: 0, 0x300: 4})]
        assert late.closed == []
        windows.observe(0x400, 4)
        assert late.closed == [(1, {0x300: 0, 0x400: 4})]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats_digest(stats) -> str:
    rows = sorted(
        (
            pc,
            tuple(s.instances),
            tuple(sorted(s.seen_count[side].items()) for side in (0, 1)),
            tuple(sorted(s.distance_sum[side].items()) for side in (0, 1)),
        )
        for pc, s in stats.items()
    )
    return _sha(repr(rows).encode())


def _digests(name):
    """The pinned digests for one benchmark, in :data:`KINDS` order."""
    thresholds = SelectionThresholds()
    distance = thresholds.max_cfm_distance
    workload = build_benchmark(name, 200, 0)
    program = workload.program
    trace = workload.run()
    profile = profile_trace(program, trace)
    branches = sorted(profile.branches)
    plain = collect_reconvergence(
        program, trace, branches, max_distance=distance
    )
    loop = collect_reconvergence(
        program, trace, branches, max_distance=distance,
        allow_loop_carried=True,
    )
    # Digest the statistics before selection reads them (its lookups
    # insert zero counts into the per-side defaultdicts).
    out = [_stats_digest(plain), _stats_digest(loop)]
    recon = collect_reconvergence(
        program, trace, candidate_branch_pcs(profile, thresholds),
        max_distance=distance,
    )
    dmp = build_hint_table(
        select_diverge_branches(profile, recon, thresholds), thresholds,
        multiple_cfm=True,
    )
    loop_pred = merge_hint_tables(
        dmp,
        select_diverge_loop_branches(program, trace, profile, thresholds),
    )
    out += [
        _sha(dmp.to_bytes()),
        _sha(loop_pred.to_bytes()),
        _sha(learn_hints_from_trace(trace).to_bytes()),
        _sha(learn_hints_from_trace(trace, warmup_fraction=1.0).to_bytes()),
    ]
    return tuple(out)


KINDS = (
    "reconvergence",
    "reconvergence-loop",
    "hints-dmp",
    "hints-loop-pred",
    "hints-learned",
    "hints-learned-full",
)

#: sha256 digests per benchmark, in :data:`KINDS` order.
PINS = {
    "bzip2": (
        "4e90fe76656b188cab1a553d04276aaf1496d6440c166a5b08956ff531e53198",
        "0488892bde11e22d385dd1794b5033b38ecefbcbdad9b7ce201d71cd427b2290",
        "aa549cad467a8713e7f3f10507d4a0635be5a217e03a13d30b69cc4e41b87aa4",
        "7643ed1c91c90e2ea3480da6a7d7567fb672493f78a5abf801728c752720fd62",
        "3f4ce799721b111a7480a709e3a6a96cdf7f85de7a194013f6301df3e4aac75e",
        "20a2c7f8de561c022f04d610f643ad58119ed8724a72e1e355e5650bdcf74bb0",
    ),
    "crafty": (
        "afb0308e553dd7f421d72f17f5be0f551377da630224a888b2b8ae7ef7fa3acc",
        "02d79084ed5336b2c10435c364f65194f5d9406989cd55accc70078bef06e85b",
        "e65a7d2545fb398023c37ed2a2312ec18e309bc2fe2899dd4eb591d7bec880ee",
        "53850f8a854018c40d795aa89f299925851ab340d431b47cb12ba8f06fb19a9c",
        "7a412221f70fc272976acbfd239d4dd65b52e58069ba11fe035ecce505682bb9",
        "c256a6b9e69641080708a271d9f140aa4c1d04934f2af664d1a05b36bff67d67",
    ),
    "eon": (
        "c5ca3216d4d9660faca8a48b2a16e6c2e215b894186f2d234c75f7db10538dbd",
        "4153b0d58262ba96c2a9ae666bb3ceef3b37bc9f51c441852779df608aacf33d",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "bf2d14cbec933e0a1b76db44cb5ab2503e3391d063820b1bc71b54075f75e393",
    ),
    "gap": (
        "1d8e5f5a9398e99e9577faffa7332a40dba9ce9c09473fd8b5d5e4fb445217d2",
        "9dd944a79f56b3b0cf3e703e87fc24b1ea0a74ad64dcde2e894f999f8227a0d6",
        "4e50cfc7ed684b11e710cd7dd41614336fa29ef5e9ddfb3b636cd848758a7c1e",
        "4e50cfc7ed684b11e710cd7dd41614336fa29ef5e9ddfb3b636cd848758a7c1e",
        "7a412221f70fc272976acbfd239d4dd65b52e58069ba11fe035ecce505682bb9",
        "9c46f76ff525dddcd14ae31a5fd519a2f7408a63546ac7952f0954b6d2edfaf2",
    ),
    "gcc": (
        "d4764bbec4c0ab37d8dfa77395aac21aa4e2fdc1a51df05136a1c26952138bcc",
        "41501dcb90bc681b0e70b73dba928d4584d7aea61469643020d9d732c6142e3a",
        "16b9e8353544921cbf4083678c4f23e3d7805ac72d00c3f9bae6dd58cd747a69",
        "16b9e8353544921cbf4083678c4f23e3d7805ac72d00c3f9bae6dd58cd747a69",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "966146747717971c63551358e629798ee6831fe1b2f2900629a23037471b16ba",
    ),
    "gzip": (
        "4a713a07487a680b5119d212833ade5d095657c4711589da286fef6e155e1215",
        "c9120a19b485ed002b95c010527a70e843b57858c283b6634208b20986cf6be5",
        "34af285c83ddb0278423d8352e7c58270f155489a9019b4966b540fddc2a00b0",
        "72cf1a04aeb56a1941d9fb5f39854e1fbce508bcc7159d8c3a6f4b552e06b191",
        "947623ab71e130aea28b21e2d01d22a40f49f34cf560fae6773c35dff49d022e",
        "1c5f0a2ca1fd9b64d07ac60d1cf3380a14f749b40939ee50a87d82250b11ab1d",
    ),
    "mcf": (
        "46fc05e73000e6ea70cc8506256e43166b987ecb32b00d3d9e44220f8d114951",
        "ed119e36fc10b718a8bd99ba16ca2de390e290a7c51553fa29b4120c9b482fb8",
        "055ad051cd6762abd5268e6b14166a1da9c8077ac348eee5a1513dfc6aee56f1",
        "0f47f465731a7f5415874ae57170e1970d3874e3fd4e7e7b8e22f07a35287ed5",
        "eb2f0629f336f530dd3a59174cd8abc103a20ed4db3c62babfc543730a07a47d",
        "00b7b461ddaacc5c08dc7d93a8f623d616c3ff049624fd74714f2e8133517282",
    ),
    "parser": (
        "9c95b7772c6e7fab8c3c0886dd22e7cb7770f66a4002ba07e8012d9fd8d8922f",
        "b8d5b11519b770c899309b5465d3e7ab0b5cc794eab438489f7a992f53ddbd99",
        "0ab1b2fb29822d253c1a39ee0466d8a0f87b4237b41f6e1521f07bfa6a3dc4f1",
        "0a7d52bae8b939771969401f7ea773b54c9f497bef8eaa4ec396bc2771065380",
        "ba0f7677164bb6668757919f31832fc57ba4631503039aef31c1e074810543b4",
        "19cd242ebbfe1dc31053305ef99d64c1b5867d862c2ab844888f6abb112ed83c",
    ),
    "perlbmk": (
        "cf9107e66bac6ef92a8f81302b9acb6eb5b46cbffed5c4031bfcfb464063463b",
        "c30e18fd0cc45cffd62216277111cb95208847f08e323ef00e18b69fb1bb8794",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "4437c5bd15fc6ab009e3a6fe4dfe7a8ade74edcdff1fb5664f930fe81dea21b5",
    ),
    "twolf": (
        "b62eb01a5b77da8560c6702b12e7c46e3c34d90835f5a8bf4f698536ff22daa8",
        "8884dad10b3aa3e9145a1a2a1803d600c56febffd07dc9e501267547d546fc07",
        "92c86b8020345bfff3fe1f718b97e59c96ee6654cc49f9a9dfa3f2fcbb5004bd",
        "b35e18f6177d96f9618e2bca9a312bbbea9c7429a19bc7f30fe1a8cf745b949a",
        "7022dbaccb2639d24e952b277836f04479c7c0aaaed0442d6f670c1fbd505f00",
        "5988d63e4abf885f2f051176a7d07035ea7c5cb9e84f37c02cf24b4838725085",
    ),
    "vortex": (
        "75214f1a07066b9393747347f30698c2a55f9181daef2c2397e3f9fee4147ed6",
        "d7bbb84fc76ff0b5c9719dc48e45ac70c68ba2f58e464a7b087424ff15b33228",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "4bd249ee2366a11594ee2e52eb32b2507b2d99492976a2abc4b32f368feac64b",
    ),
    "vpr": (
        "1ea767486f3254ff1ac91c0cdcbe1676c38b663c71c98f5fce127b7ac20ca96f",
        "2cfbb61c293234033800d6e81cd768af49ececb47f6f426a7a6a5749a13b0f07",
        "6a0083f9ed8cb123af8656ac6189f65f09610fe70a764c1cefde7cea2c99d87d",
        "a78fce9a889d0cd3b59b2c3cd32c046f5eccfd71e06bfd5aebabd2cfcb27cea7",
        "ed76f7e00a10ba6e07db8256b0f8b87fd460f8195d926536b47a051a0d07ad17",
        "2693c91e1513c9684e798a6484c2e528dfe9c1aa3dd4b2e7e3ff6797fd7e9a4e",
    ),
    "mesa": (
        "46005cda1c57e0adfe783fb41753164fd6502340ca36e321b8fab5d9e44f5470",
        "1e74ad8eb63165ddf014e33844103a93b0967f266209f23e0e49a2b0eb6084a7",
        "60cb04371fc4430bb82d21eb9f997a846115d609a99164c86a5d969968e32625",
        "60cb04371fc4430bb82d21eb9f997a846115d609a99164c86a5d969968e32625",
        "384f92859906d07699ff8a08b551104159fee8c74350d57514762f3960e9b2cf",
        "8918e45b8ad5f1d24ca20bea0a7a4df449bcd668d7c46e713fff79b5b068899b",
    ),
    "ammp": (
        "b23aa38506f7b08160cd8fb2e034edd893789e3416d5a20850d9ec347e61d8fb",
        "43048b586ce47f04239f18c5ec74656a7227c45a932a6be990823cc326da86e9",
        "1d61dd22bfbbc07f6f5e6fa81f4f009719a782bc6e01b1cc2c57ecc5416abe7e",
        "1d61dd22bfbbc07f6f5e6fa81f4f009719a782bc6e01b1cc2c57ecc5416abe7e",
        "9db30ad3e52f83559de8ed0a26350f85d944c5cc8ae1c46a4f1891e6a3c6e2f1",
        "a4fd644d6bf81d6277fe788b0fdd36f5adaf1c7c4c5ddb5f96400386ab8734fb",
    ),
    "fma3d": (
        "fa65c6ec65d05c4d43e9b1adb3fba16ad9828d81b1bdf2f02355c969aabcf4e2",
        "fa65c6ec65d05c4d43e9b1adb3fba16ad9828d81b1bdf2f02355c969aabcf4e2",
        "7c0f770ac5a9def0faddc38cf36aa816bc99b99b798f7d657aab90e601acd8ea",
        "7c0f770ac5a9def0faddc38cf36aa816bc99b99b798f7d657aab90e601acd8ea",
        "7392b30bd2aaf98224df71d6ab60986bf4ced327e64586c04be40d0afbaf0779",
        "940aaa34eebd35b1bfebc02b2a96d79b8b0d77f89942eb44340366e665f74b96",
    ),
}


def test_pins_cover_the_suite():
    assert tuple(PINS) == BENCHMARK_NAMES


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_pinned_digests(name):
    got = dict(zip(KINDS, _digests(name)))
    assert got == dict(zip(KINDS, PINS[name]))
