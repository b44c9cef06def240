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


def test_search_nonexistence_has_no_jobs_option(capsys):
    # the search runs in one process, so argparse refuses the option
    with pytest.raises(SystemExit) as exc:
        main("search-nonexistence --n 7 --k 3 --z 2 --b 2 --tau 5 --gf 2 --jobs 2".split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["verify-code", "simulate"])
def test_deeply_nested_json_exits_with_one_line(tmp_path, capsys, command):
    # `json` raises RecursionError, not ValueError, at this depth.
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(tmp_path / "code53.json"))
    (tmp_path / "deep.json").write_text("[" * 200_000)
    argv = {
        "verify-code": f"verify-code --descriptor {tmp_path}/deep.json --tau 4 --model sw:2,5",
        "simulate": f"simulate --descriptor {tmp_path}/code53.json --tau 4 --pattern {tmp_path}/deep.json --horizon 2",
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    message = exc.value.code
    assert isinstance(message, str) and message.startswith(f"streamfec {command}: ") and "\n" not in message
    assert capsys.readouterr().out == ""


def test_bad_model_spec_is_operational_error(tmp_path, capsys):
    desc = tmp_path / "code.json"
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(desc))
    with pytest.raises(SystemExit):
        main(["verify-code", "--descriptor", str(desc), "--tau", "4", "--model", "nope:1"])
    with pytest.raises(SystemExit) as exc:
        main(["verify-code", "--descriptor", str(desc), "--tau", "4", "--model", "mbsw:1,2"])
    assert exc.value.code == "streamfec verify-code: bad model spec 'mbsw:1,2': mbsw takes z,b,w"


# Each of these printed a traceback, a wrong count or a silent accept before the CLI had
# one error boundary and the library validated its inputs.
BAD_INPUT = {
    "construct-unsupported-field": "construct --mds 5 3 --gf 6",
    "construct-negative-modulus": "construct --mds 5 3 --gf 8 --modulus -11",
    "construct-gf2-modulus": "construct --mds 3 1 --gf 2 --modulus 5",
    "bounds-non-numeric-grid": "bounds --grid z=a..3",
    "bounds-reversed-range": "bounds --grid z=1..0",
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
    "simulate-negative-horizon": "simulate --descriptor {dir}/code53.json --tau 4 --pattern {dir}/ok.csv --horizon -1",
    "enumerate-negative-horizon": "enumerate-patterns --model sw:1,3 --horizon -2 --count-only",
    "enumerate-negative-support-bound": (
        "enumerate-patterns --model sw:1,3 --horizon 4 --support-bound -3 --count-only"
    ),
    "equivalence-negative-support-bound": "equivalence-check --a 1 --w 5 --gf 8 --support-bound -3",
    "equivalence-support-bound-minus-one": "equivalence-check --a 1 --w 5 --gf 8 --support-bound -1",
    "equivalence-a-with-bursts": "equivalence-check --a 1 --z 1 --b 2 --w 7 --gf 8",
    "equivalence-a-with-z": "equivalence-check --a 1 --z 1 --w 7 --gf 8",
    "verify-no-bursts": "verify-code --descriptor {dir}/code53.json --tau 4 --bursts 0 2",
    "verify-zero-burst-length": "verify-code --descriptor {dir}/code53.json --tau 4 --bursts 1 0",
    "search-cursor-past-end": "search-nonexistence --n 7 --k 3 --z 2 --b 2 --tau 5 --gf 2 --resume-from 99999",
    "search-cursor-negative": "search-nonexistence --n 7 --k 3 --z 2 --b 2 --tau 5 --gf 2 --resume-from -5",
    "search-k-zero": "search-nonexistence --n 4 --k 0 --z 2 --b 2 --tau 2 --gf 2",
    "search-k-negative": "search-nonexistence --n 3 --k -1 --z 2 --b 2 --tau 1 --gf 2",
    "simulate-missing-pattern-file": (
        "simulate --descriptor {dir}/code53.json --tau 4 --pattern {dir}/missing.csv --horizon 2"
    ),
    "construct-out-in-missing-dir": "construct --mds 5 3 --gf 8 --out {dir}/nonexistent/x.json",
    "simulate-error-value-true": (
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5 --pattern {dir}/true.json --horizon 2"
    ),
    "simulate-error-time-true": (
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5 --pattern {dir}/true_t.json --horizon 2"
    ),
    "simulate-error-horizon-true": (
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5 --pattern {dir}/true_horizon.json "
        "--horizon 2"
    ),
    "verify-descriptor-true-in-P": "verify-code --descriptor {dir}/true_P.json --tau 4 --bursts 1 2",
    "verify-descriptor-m-string": "verify-code --descriptor {dir}/m_string.json --tau 4 --bursts 1 2",
    "verify-descriptor-n-string": "verify-code --descriptor {dir}/n_string.json --tau 4 --bursts 1 2",
    "verify-descriptor-P-number": "verify-code --descriptor {dir}/P_number.json --tau 4 --bursts 1 2",
    "simulate-descriptor-null-row-in-P": (
        "simulate --descriptor {dir}/P_null_row.json --tau 4 --pattern {dir}/ok.csv --horizon 2"
    ),
    "simulate-descriptor-field-list": (
        "simulate --descriptor {dir}/field_list.json --tau 4 --pattern {dir}/ok.csv --horizon 2"
    ),
    "verify-descriptor-top-level-list": "verify-code --descriptor {dir}/top_list.json --tau 4 --bursts 1 2",
    "verify-descriptor-no-modulus": "verify-code --descriptor {dir}/no_modulus.json --tau 4 --bursts 1 2",
    "verify-descriptor-no-P": "verify-code --descriptor {dir}/no_P.json --tau 4 --bursts 1 2",
    "verify-error-model": "verify-code --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5",
    "simulate-csv-with-error-model": (
        "simulate --descriptor {dir}/code53.json --tau 4 --model sw_err:1,5 --pattern {dir}/ok.csv --horizon 2"
    ),
    "model-spec-value-missing": "verify-code --descriptor {dir}/code53.json --tau 4 --model sw:1",
}


# Error-pattern files whose JSON is no pattern, or holds a packet value
# that is no field value, and the one line each prints.
BAD_PATTERN_JSON = {
    "value-string": ('{"horizon": 6, "packet_size": 5, "errors": [{"t": 1, "packet": ["1", 0, 0, 0, 0]}]}', "'1'"),
    "value-float": ('{"horizon": 6, "packet_size": 5, "errors": [{"t": 1, "packet": [1.5, 0, 0, 0, 0]}]}', "1.5"),
    "value-true": ('{"horizon": 6, "packet_size": 5, "errors": [{"t": 1, "packet": [true, 0, 0, 0, 0]}]}', "True"),
    "value-past-field": ('{"horizon": 6, "packet_size": 5, "errors": [{"t": 1, "packet": [0, 9, 0, 0, 0]}]}', "9"),
    "value-null": ('{"horizon": 6, "packet_size": 5, "errors": [{"t": 1, "packet": [0, 0, null, 0, 0]}]}', "None"),
    "value-list": ('{"horizon": 6, "packet_size": 5, "errors": [{"t": 1, "packet": [0, 0, 0, 0, [1]]}]}', "[1]"),
    # the first bad value in order is the one named
    "value-first-of-two": ('{"horizon": 6, "packet_size": 5, "errors": [{"t": 1, "packet": [0, 9, "1", 0, 0]}]}', "9"),
}


@pytest.mark.parametrize("text, value", BAD_PATTERN_JSON.values(), ids=BAD_PATTERN_JSON.keys())
def test_error_pattern_value_not_in_field_exits_with_its_line(tmp_path, capsys, text, value):
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(tmp_path / "code53.json"))
    (tmp_path / "p.json").write_text(text)
    argv = f"simulate --descriptor {tmp_path}/code53.json --tau 4 --model sw_err:1,5 --pattern {tmp_path}/p.json"
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--horizon", "2"])
    assert exc.value.code == f"streamfec simulate: {value} is not a value of GF(8, modulus=0b1011)"
    assert capsys.readouterr().out == ""


def test_erasure_csv_cell_that_is_no_flag_exits_with_its_line(tmp_path, capsys):
    # The pattern "0,0_1,1" was simulated as (0, 1, 1).
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(tmp_path / "code53.json"))
    (tmp_path / "p.csv").write_text("0,0_1,1\n")
    argv = f"simulate --descriptor {tmp_path}/code53.json --tau 4 --pattern {tmp_path}/p.csv --horizon 2"
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == "streamfec simulate: erasure pattern CSV cell '0_1' is not 0 or 1"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text", ["[1,2]", "  [1, 2]\n", "[]"])
def test_top_level_json_array_pattern_is_read_as_json(tmp_path, capsys, text):
    # A pattern file that opens a JSON array is no erasure CSV: it is an
    # error pattern without its keys.
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(tmp_path / "code53.json"))
    (tmp_path / "p.json").write_text(text)
    for model in (["--model", "sw_err:1,5"], []):
        argv = ["simulate", "--descriptor", str(tmp_path / "code53.json"), "--tau", "4", "--pattern"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(tmp_path / "p.json"), "--horizon", "2"] + model)
        assert exc.value.code == "streamfec simulate: error pattern JSON lacks horizon, packet_size, errors"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_with_one_line(tmp_path, capsys, argv):
    run(capsys, "construct", "--mds", "5", "3", "--gf", "8", "--out", str(tmp_path / "code53.json"))
    (tmp_path / "two.csv").write_text("1,2,0\n")
    (tmp_path / "ok.csv").write_text("1,0,0\n")
    # [5,3] with 2 messages has packets 0..5; slot 7 is past the stream
    (tmp_path / "long.csv").write_text("0,0,0,0,0,0,0,1\n")
    (tmp_path / "nokeys.json").write_text('{"horizon": 4}')
    for name, value in (("big", 9), ("neg", -1), ("true", True)):
        errors = [{"t": 1, "packet": [value, 0, 0, 0, 0]}]
        (tmp_path / f"{name}.json").write_text(json.dumps({"horizon": 6, "packet_size": 5, "errors": errors}))
    # JSON true is no integer, even where 1 would be valid
    for name, horizon, t in (("true_t", 6, True), ("true_horizon", True, 0)):
        errors = [{"t": t, "packet": [1, 0, 0, 0, 0]}]
        (tmp_path / f"{name}.json").write_text(json.dumps({"horizon": horizon, "packet_size": 5, "errors": errors}))
    # Descriptors with a field of the wrong JSON type
    base = json.loads((tmp_path / "code53.json").read_text())
    p_rows = base["P"]
    bad_descriptors = {
        "true_P": {**base, "P": [[True] + p_rows[0][1:]] + p_rows[1:]},
        "m_string": {**base, "field": {**base["field"], "m": "3"}},
        "n_string": {**base, "n": "5"},
        "P_number": {**base, "P": 5},
        "P_null_row": {**base, "P": [p_rows[0], None] + p_rows[2:]},
        "field_list": {**base, "field": [2, 3]},
        "top_list": [base],
        "no_modulus": {**base, "field": {"p": 2, "m": 3}},
        "no_P": {key: v for key, v in base.items() if key != "P"},
    }
    for name, descriptor in bad_descriptors.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(descriptor))
    with pytest.raises(SystemExit) as exc:
        main(argv.format(dir=tmp_path).split())
    message = exc.value.code
    assert isinstance(message, str) and message and "\n" not in message
    assert capsys.readouterr().out == ""
