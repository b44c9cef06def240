import json
from itertools import product

import pytest

from streamfec.channel import ChannelModel, ErasurePattern, ErrorPattern
from streamfec.cli import main

GOLDEN_BOUNDS_CSV = """z,b,w,mbsw_rate_bound,mbsw_error_rate_bound,de_achievable\r
2,2,5,2/6,,True\r
2,2,6,3/7,,False\r
2,2,7,4/8,,True\r
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    desc = tmp_path / "code.json"
    code, _ = run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(desc))
    assert code == 0
    blob = json.loads(desc.read_text())
    assert (blob["n"], blob["k"]) == (5, 3)
    assert blob["field"] == {"p": 2, "m": 3, "modulus": 11}
    code, out = run(capsys, "verify-code", "--descriptor", str(desc), "--tau", "4", "--model", "sw:2,5")
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is True and result["counterexample"] is None


def test_construct_descriptor_bytes_are_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "--multi-burst", "4", "2", "2", "--gf", "8", "--out", str(a))
    run(capsys, "construct", "--multi-burst", "4", "2", "2", "--gf", "8", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    code, out = run(capsys, "verify-code", "--descriptor", str(a), "--tau", "6", "--bursts", "2", "2")
    assert code == 0 and json.loads(out)["ok"] is True


def test_construct_infeasible_names_the_predicate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--multi-burst", "5", "2", "2", "--gf", "8"])
    assert "divide" in str(exc.value)


def test_verify_code_reports_counterexample(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(desc))
    code, out = run(capsys, "verify-code", "--descriptor", str(desc), "--tau", "4", "--bursts", "1", "3")
    assert code == 0
    result = json.loads(out)
    assert result["ok"] is False
    assert result["counterexample"]["support"] == [0, 1, 2]


def test_bounds_golden_csv(capsys):
    code, out = run(capsys, "bounds", "--grid", "z=2", "b=2", "w=5..7")
    assert code == 0
    assert out == GOLDEN_BOUNDS_CSV


def test_enumerate_patterns_count_matches_naive(capsys):
    code, out = run(capsys, "enumerate-patterns", "--model", "mbsw:2,2,7", "--horizon", "10", "--count-only")
    assert code == 0
    model = ChannelModel.mbsw(2, 2, 7)
    naive = sum(
        1 for flags in product((0, 1), repeat=10) if model.admits(ErasurePattern(10, flags))
    )
    assert json.loads(out) == {"count": naive}


def test_enumerate_patterns_listing(capsys):
    code, out = run(capsys, "enumerate-patterns", "--model", "sw:1,2", "--horizon", "2")
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "1,0"]


def test_simulate_erasure_csv_pattern(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(desc))
    pat = tmp_path / "pattern.csv"
    pat.write_text("1,0,0,1,0,0,0,0\n")
    args = (
        "simulate", "--descriptor", str(desc), "--tau", "4",
        "--model", "sw:2,5", "--pattern", str(pat), "--horizon", "8", "--seed", "7",
    )
    code, out1 = run(capsys, *args)
    assert code == 0
    report = json.loads(out1)
    assert report["success"] is True
    assert report["pattern_admissible"] is True
    assert report["failures"] == []
    assert len(report["per_packet"]) == 8
    _, out2 = run(capsys, *args)
    assert out1 == out2  # deterministic replay, byte for byte


def test_simulate_error_json_pattern(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(desc))
    pat = tmp_path / "pattern.json"
    pat.write_text(ErrorPattern.from_entries(10, 5, {2: (0, 0, 3, 0, 0)}).to_json())
    code, out = run(
        capsys,
        "simulate", "--descriptor", str(desc), "--tau", "4",
        "--model", "sw_err:1,5", "--pattern", str(pat), "--horizon", "6", "--seed", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["success"] is True and report["ambiguities"] == []


def test_search_nonexistence_cli(capsys):
    code, out = run(
        capsys,
        "search-nonexistence", "--n", "7", "--k", "3", "--z", "2", "--b", "2",
        "--tau", "5", "--gf", "2",
    )
    assert code == 0
    result = json.loads(out)
    assert result == {"found": False, "witness": None, "candidates_checked": 4096, "total": 4096}


def test_search_nonexistence_witness_descriptor(capsys):
    code, out = run(
        capsys,
        "search-nonexistence", "--n", "4", "--k", "2", "--z", "1", "--b", "2",
        "--tau", "2", "--gf", "2",
    )
    assert code == 0
    result = json.loads(out)
    assert result["found"] is True
    assert result["witness"]["P"] == [[1, 0], [0, 1]]


def test_equivalence_check_cli(capsys):
    code, out = run(
        capsys, "equivalence-check", "--a", "1", "--w", "3", "--gf", "4", "--support-bound", "2"
    )
    assert code == 0
    result = json.loads(out)
    assert result["patterns"] == result["exact"] == 28
    assert result["ambiguities"] == 0


def test_equivalence_check_burst_variant_cli(capsys):
    code, out = run(
        capsys,
        "equivalence-check", "--z", "1", "--b", "2", "--w", "7", "--gf", "4",
        "--support-bound", "1",
    )
    assert code == 0
    result = json.loads(out)
    # supports: {}, {0}, {1}, {0,1}; 24 spanning values per slot
    assert result["patterns"] == result["exact"] == 1 + 2 * 24 + 24 * 24
    assert result["ambiguities"] == 0


def test_equivalence_check_infeasible_burst_parameters(capsys):
    with pytest.raises(SystemExit):
        main(["equivalence-check", "--z", "1", "--b", "2", "--w", "6", "--gf", "8"])


def test_malformed_descriptor_is_operational_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit):
        main(["verify-code", "--descriptor", str(bad), "--tau", "4", "--bursts", "1", "2"])


def test_bad_model_spec_is_operational_error(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(desc))
    with pytest.raises(SystemExit):
        main(["verify-code", "--descriptor", str(desc), "--tau", "4", "--model", "nope:1"])


# Each of these printed a traceback, a wrong count or a silent accept before the CLI had
# one error boundary and the library validated its inputs.
BAD_INPUT = {
    "construct-unsupported-field": "construct --mds 5 3 --gf 6",
    "bounds-non-numeric-grid": "bounds --grid z=a..3",
    "verify-tau-below-k": "verify-code --descriptor {dir}/code53.json --tau 2 --bursts 1 2",
    "simulate-csv-flag-2": "simulate --descriptor {dir}/code53.json --tau 4 --pattern {dir}/two.csv --horizon 4",
    "simulate-negative-tau": "simulate --descriptor {dir}/code53.json --tau -1 --pattern {dir}/ok.csv --horizon 4",
    "simulate-pattern-past-stream": (
        "simulate --descriptor {dir}/code53.json --tau 4 --pattern {dir}/long.csv --horizon 2"
    ),
    "simulate-error-json-lacks-keys": (
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5 --pattern {dir}/nokeys.json --horizon 2"
    ),
    "simulate-error-value-past-field": (
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5 --pattern {dir}/big.json --horizon 2"
    ),
    "simulate-error-value-negative": (
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5 --pattern {dir}/neg.json --horizon 2"
    ),
    "enumerate-negative-horizon": "enumerate-patterns --model sw:1,3 --horizon -2 --count-only",
    "equivalence-negative-support-bound": "equivalence-check --a 1 --w 5 --gf 8 --support-bound -3",
    "verify-no-bursts": "verify-code --descriptor {dir}/code53.json --tau 4 --bursts 0 2",
    "verify-zero-burst-length": "verify-code --descriptor {dir}/code53.json --tau 4 --bursts 1 0",
    "search-cursor-past-end": "search-nonexistence --n 7 --k 3 --z 2 --b 2 --tau 5 --gf 2 --resume-from 99999",
    "search-cursor-negative": "search-nonexistence --n 7 --k 3 --z 2 --b 2 --tau 5 --gf 2 --resume-from -5",
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_with_one_line(tmp_path, capsys, argv):
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(tmp_path / "code53.json"))
    (tmp_path / "two.csv").write_text("1,2,0\n")
    (tmp_path / "ok.csv").write_text("1,0,0\n")
    # [5,3] with 2 messages has packets 0..5; slot 7 is past the stream
    (tmp_path / "long.csv").write_text("0,0,0,0,0,0,0,1\n")
    (tmp_path / "nokeys.json").write_text('{"horizon": 4}')
    for name, value in (("big", 9), ("neg", -1)):
        errors = [{"t": 1, "packet": [value, 0, 0, 0, 0]}]
        (tmp_path / f"{name}.json").write_text(json.dumps({"horizon": 6, "packet_size": 5, "errors": errors}))
    with pytest.raises(SystemExit) as exc:
        main(argv.format(dir=tmp_path).split())
    message = exc.value.code
    assert isinstance(message, str) and message and "\n" not in message
    assert capsys.readouterr().out == ""
