"""Golden output fingerprints: fixed-seed CLI runs must reproduce these bytes.

A change that moves an RNG stream, a CSV byte or a report line fails here,
not only in the benchmark's cross-run hash check. The hashes are SHA-256 of
the output files (and of the e2e report on stdout). A change that alters an
output on purpose updates the hash and says why.
"""

import hashlib

from ctorsim.cli import EXIT_INTERRUPTED, EXIT_OK, main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_fig2_csvs(tmp_path, capsys):
    assert main(["fig2", "--trials", "200", "--seed", "7", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert sha256((tmp_path / "fig2_analytic.csv").read_bytes()) == (
        "8a6056addea74c1c3a827b8a627e7165ada69192fdbeb03797c9c088370dfdc6"
    )
    assert sha256((tmp_path / "fig2_simulated.csv").read_bytes()) == (
        "9318fb74a3fd1a2cf0606c3ac28da2035689714eec5c6330a3a2570b08b3ff29"
    )


def test_simulate_full_pipeline_csv(tmp_path):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--mknown", "0..4", "--trials", "3", "--seed", "3",
            "--full-pipeline-fraction", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert sha256(out.read_bytes()) == "19f7037e25db756d32640fef768a18545963bbe613cb5b877373de804e87b61b"


def run_e2e(block, capsys):
    code = main(["e2e", "--variant", "ctor:10:4", "--message-size", "20000", "--seed", "5",
                 "--block", block])
    return code, sha256(capsys.readouterr().out.encode())


def test_e2e_report_with_blocking_absorbed(capsys):
    assert run_e2e("1,4,7", capsys) == (EXIT_OK, "94731167324e875a2d864fb991a3a1e97a6a61bdb8843376c684f3ece25b7b87")


def test_e2e_report_with_blocking_beyond_redundancy(capsys):
    assert run_e2e("0,1,2,3,4", capsys) == (EXIT_INTERRUPTED, "4fc934ef7a8fd99f2b21b502ada2d77955db7172a1c829701644f938688b8f07")


def e2e_report(argv, capsys):
    code = main(["e2e", "--message-size", "20000", "--seed", "5", *argv])
    return code, sha256(capsys.readouterr().out.encode())


def test_e2e_report_of_one_circuit(capsys):
    # otor: k = 1, so each of the 40 generations is one cell on one circuit
    assert e2e_report(["--variant", "otor"], capsys) == (
        EXIT_OK, "a57a1c2a4b783677a70ced434691cce4ce0a91149501ec133da955ba58781366"
    )


def test_e2e_report_of_uncoded_circuits_with_one_blocked(capsys):
    assert e2e_report(["--variant", "mtor:5", "--block", "3"], capsys) == (
        EXIT_INTERRUPTED, "434768cc793d1bcf9d071d6588b7605c07b41eee9d7b452d8f15a713bd65682f"
    )


def test_e2e_report_of_a_sampled_pool(capsys):
    # the seed picks one censor-known bridge, on data circuit 0, so every
    # generation decodes through a parity cell
    assert e2e_report(["--variant", "ctor:5:2", "--mb", "25", "--mknown", "10", "--scenario-seed", "3"], capsys) == (
        EXIT_OK, "18955b1f866cd7b1ce2f8c08af4e4374fa113e6a19ae2c1e29ceaa3da0c0f620"
    )
