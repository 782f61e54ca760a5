"""Golden over the whole CLI surface: what every command prints and writes.

Each registered command runs in-process at its smallest scale from an
empty working directory with relative output paths, so stdout (the
``[bench] wrote out/...`` line included) and every file left behind are
a pure function of the code.  The digests below were recorded once and
are the before/after of any change to the CLI, the experiment catalogue
or the planes under it: a PR that moves code around must leave them
alone, a PR that changes a number or a table has to re-record and say why.

Re-record with ``REPRO_CLI_GOLDEN_RECORD=1 pytest tests/harness/test_cli_golden.py -s``
(prints the new table; nothing is written).
"""

import hashlib
import os

import pytest

from repro.harness import cli

BENCH = ["--bench-dir", "out"]

# command line -> (sha256 of stdout, {file left under out/: sha256})
GOLDEN = {
    "setup --quick": (
        "e681cf56fa29377b946a730cfc3065c36a92af8b0a01b481447e9118359ad990",
        {
            "BENCH_setup.json":
                "418320b0de3cc28251453fe187423cd94508475b7fd8ad88d66688209a01e6e0",
        },
    ),
    "fig3 --quick": (
        "df88984c7581b8d47af19b8e6c9e725273ebaec7ed46aba6b7b4ac504b2a39ad",
        {
            "BENCH_fig3_send_time.json":
                "79a9ea10ab7839ba80c8e0024c3e9f93be140ea6b6c908566984f2b40f3a33d1",
        },
    ),
    "fig4 --quick": (
        "71a0170403297c175fae52b461aeb353952d3feb0ad2550d67a70b91e06eba0e",
        {
            "BENCH_fig4_request_reply.json":
                "4ef7494a7978d0735b733c26f9e6e3430ca50c2f69a8c30d8a6292019097a2e9",
        },
    ),
    "fig5 --quick": (
        "775760a89510b1e1b94ef68c899eb994a23170e3a499b09aec4d77d603188b25",
        {
            "BENCH_fig5_stream_rates.json":
                "78185f17276fb14525fee9419bb6398f50cbe7c350c25b3f8e23ad62ca929211",
        },
    ),
    "fig6 --quick": (
        "7e1acc9085fe383ccc70b3747932394b2ac8809d383048cf4eac8fcab5bb46e9",
        {
            "BENCH_fig6_ftp_wan.json":
                "d9d18adb6eaa4dd932685469f902dbe3698ce0a24452df7fac1e6c21a14c0c31",
        },
    ),
    "failover --quick": (
        "92eb6555ea683e2c5e2225c563fa207d571f901665ef5145535f98e74d772b02",
        {
            "BENCH_failover_stall.json":
                "4d1f31f77697468badc19c3a70113251002c8ac8b47829d102908bc3d2e0f38b",
        },
    ),
    "ablation": (
        "c4b788f31e601566b21a504d26fb7dd91fd339aef6ac504795272368a7d852da",
        {
            "BENCH_ablation.json":
                "0bda51d4c55b4eba4cd2b381af80518d9fe12e9f5e638dbb8c40682bb09183b6",
        },
    ),
    "chain": (
        "ed532bda959bb154447e1a1f53088c709ec6c5c245ed770f8f2512d8aa64db2a",
        {
            "BENCH_chain_depth.json":
                "2162bba3847491e7ca47feee3853a6331e78ea80b7c8c3afda5e90c878b4549a",
        },
    ),
    "reintegrate": (
        "aa1a0d0d86ff235b2256f606624679e2433c897d91bd3f25a4850fd824cfaf6c",
        {
            "BENCH_reintegration.json":
                "3a20d7bcae30f66a594d71f7fa79ab16379d8f723220f22aeacd76ca391acb0d",
        },
    ),
    "cluster --quick": (
        "8f9b81d7dbfd122626fdc3f0113a96d7034ef643be550c7fd900388bb0b3c607",
        {
            "BENCH_cluster_capacity.json":
                "1a942f18e0f09c266771aa2e69b410e55ac7190f6e2adcd3bd712e6ae60e589a",
        },
    ),
    "adversary --quick": (
        "a4d1c86644c8b7e9e1dfd605a3ee6a8510454bf28a7307aa0b0514fb5667d609",
        {
            "BENCH_adversary_matrix.json":
                "6ac0859077aee1acee9a72b15394750b661b55ad41a85a76cfbf43ecbf0a002e",
        },
    ),
    "clients": (
        "5f3aa3b69724f7aeb27dae32bb7b52d4320c97c4caee46e7d114e384bb243d72",
        {
            "BENCH_client_paths.json":
                "e9db62b161b9229d1824d70b7b9d38cfdc79e77293ef16fba400cc3f37a34100",
        },
    ),
    "obs report": (
        "5748e41abef6a23258767427d7ca07a005f1a3d9c34bc09018c38f541053397d",
        {},
    ),
    "obs pcap": (
        "a5524a83600bfcdaf7ee68f4e05fb29dca20ee213000fc84427b2961e6c681bb",
        {
            "failover.divert.pcap":
                "643e8623f7f6ecff63d728a74b8aecd5dc926d8d24f4cb7749201efcdf6fc4ef",
            "failover.wire.pcap":
                "c4ab39d7712ca6d537d41e4870c79a1c66c8a66694f4c7cc6c193acaf7899b56",
        },
    ),
    "obs timeline --quick": (
        "fee2c431c1c25275fd9c28bfab6ddec9b5c800127ba76ced6f3e5395153e7221",
        {
            "trace.json":
                "0d4a6ba1aee94cebdbd1aeffedc7dbfd1c9c4ffc8314eaf4947cd589abe04514",
        },
    ),
}

CASES = {
    "setup --quick": ["setup", "--quick", *BENCH],
    "fig3 --quick": ["fig3", "--quick", *BENCH],
    "fig4 --quick": ["fig4", "--quick", *BENCH],
    "fig5 --quick": ["fig5", "--quick", *BENCH],
    "fig6 --quick": ["fig6", "--quick", *BENCH],
    "failover --quick": ["failover", "--quick", *BENCH],
    "ablation": ["ablation", *BENCH],
    "chain": ["chain", *BENCH],
    "reintegrate": ["reintegrate", *BENCH],
    "cluster --quick": ["cluster", "--quick", *BENCH],
    "adversary --quick": ["adversary", "--quick", *BENCH],
    "clients": ["clients", *BENCH],
    "obs report": ["obs", "report"],
    "obs pcap": ["obs", "pcap", "--out", "out/failover"],
    "obs timeline --quick": ["obs", "timeline", "--quick",
                             "--export", "out/trace.json"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_the_recorded_digest(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    os.mkdir("out")
    assert cli.main(CASES[case]) == 0
    stdout = capsys.readouterr().out
    got = (
        _sha(stdout.encode()),
        {name: _sha((tmp_path / "out" / name).read_bytes())
         for name in sorted(os.listdir("out"))},
    )
    if os.environ.get("REPRO_CLI_GOLDEN_RECORD"):
        with capsys.disabled():
            print(f"\n    {case!r}: {got!r},")
        return
    assert got == GOLDEN[case], f"`repro {case}` printed:\n{stdout}"
