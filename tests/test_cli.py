import inspect
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qfock import cli, combinat, jsonio, polywick, qsde, verify, wickalg
from qfock.cli import MAX_PAIRINGS, MAX_TENSOR_ENTRIES, run
from qfock.polywick import quartic_2d_configs
from qfock.wickalg import WickElement, expand_field_product, wick_product_vectors

GOLDEN = Path(__file__).parent / "data"


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def _strip_elapsed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


def test_import_loads_no_scipy():
    # scipy is imported by bphz_constant alone, not at start-up nor by an fq norm
    src = str(Path(cli.__file__).parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import qfock, qfock.cli; "
             "op = qfock.fock.wick_operator(2, {0: 1.0, 2: [[1.0, 0.5], [0.0, -1.0]]}, 0.5, 4); "
             "qfock.fock.operator_norm(op, sorted(op.exact_sectors), metric='fq', q=0.5); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_pairings_command(capsys):
    code, doc, _ = _capture(capsys, ["pairings", "--n", "4", "--k", "2"])
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["outputs"]["count"] == 3
    stats = [(p["cr"], p["sp"], p["crb"]) for p in doc["outputs"]["pairings"]]
    assert (1, 0, 1) in stats


def test_moment_golden_value(capsys):
    code, doc, _ = _capture(capsys, ["moment", "--q", "0.5", "--gram", "identity",
                                     "--word", "eeee"])
    assert code == 0
    assert doc["outputs"]["value"] == 2.5


def _refused_under_small_peak(capsys, argv, limit=MAX_PAIRINGS):
    """Exit 2 with a ValueError whose message holds ``str(limit)``, under a 1 MiB peak."""
    tracemalloc.start()
    try:
        code, doc, _ = _capture(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert doc["outputs"]["code"] == "ValueError"
    assert str(limit) in doc["outputs"]["message"]
    assert peak < 2 ** 20


def test_large_pairing_tables_are_refused_before_enumerating(capsys):
    # --n 13 lists 568,504 pairings, and a 16-letter moment 15!! = 2,027,025
    _refused_under_small_peak(capsys, ["pairings", "--n", "13"])
    _refused_under_small_peak(capsys, ["pairings", "--n", "21", "--k", "5"])
    _refused_under_small_peak(capsys, ["moment", "--q", "0.5", "--word", "ab" * 8])


def test_largest_admitted_pairing_tables(monkeypatch, capsys):
    # the guard passes --n 12 (140,152 pairings) and a 14-letter moment
    # (13!! = 135,135); the enumerations themselves are stubbed out
    monkeypatch.setattr(combinat, "pairing_table", lambda *_: ())
    monkeypatch.setattr(wickalg, "moment", lambda *_: 1.0)
    code, doc, _ = _capture(capsys, ["pairings", "--n", "12"])
    assert code == 0 and doc["outputs"]["count"] == 0
    code, doc, _ = _capture(capsys, ["moment", "--q", "0.5", "--word", "ab" * 7])
    assert code == 0 and doc["outputs"]["value"] == 1.0
    # an odd word lists no pairings, so no length is refused
    code, _, _ = _capture(capsys, ["moment", "--q", "0.5", "--word", "a" * 41])
    assert code == 0


def test_large_coset_tables_are_refused_before_enumerating(capsys):
    # C(21, 10) = 352,716 and C(30, 15) = 155,117,520 representatives
    _refused_under_small_peak(capsys, ["cosets", "--n", "21", "--k", "10"])
    _refused_under_small_peak(capsys, ["cosets", "--n", "30", "--k", "15"])


def test_largest_admitted_coset_table(monkeypatch, capsys):
    # C(20, 10) = 184,756 representatives pass the guard; the enumeration is stubbed out
    monkeypatch.setattr(combinat, "coset_reps", lambda *_: [])
    code, doc, _ = _capture(capsys, ["cosets", "--n", "20", "--k", "10"])
    assert code == 0 and doc["outputs"]["count"] == 0


def test_large_rough_path_tensors_are_refused_before_building(tmp_path, capsys):
    # ito builds vectors of cells entries only (its algebra runs at dimension <= 2);
    # an unsupported degree is refused before any is built
    _refused_under_small_peak(capsys, ["ito", "--cells", str(2 ** 24 + 1)],
                              MAX_TENSOR_ENTRIES)
    _refused_under_small_peak(capsys, ["ito", "--p", str(10 ** 9), "--cells", "2"],
                              "polynomial degree must be 2, 3, or 4")
    # levy and chen build a (cells,)*(2 + top chaos of a) tensor: 4097^2 entries
    # for the default a = 1, and 257^3 for a chaos-1 a
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"a": WickElement.from_vector(np.eye(257)[0]).to_json()}))
    for cells, extra in [(4097, []), (257, ["--input", str(path)])]:
        span = ["--s", "0", "--t", "1", "--cells", str(cells), *extra]
        _refused_under_small_peak(capsys, ["levy", *span], MAX_TENSOR_ENTRIES)
        _refused_under_small_peak(capsys, ["chen", "--u", "1", *span], MAX_TENSOR_ENTRIES)


def test_large_parsed_tensors_are_refused_before_allocating(tmp_path, capsys):
    # a few bytes of JSON name 4097^2 or 1024^3 entries; the parser refuses
    # them before allocating the dense array, whatever the command
    for d, degree in [(4097, 2), (1024, 3)]:
        tensor = {"d": d, "degree": degree, "coeffs": []}
        element = {"d": d, "chaos": {str(degree): tensor}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"element": element, "a": element}))
        _refused_under_small_peak(capsys, ["norm", "--q", "0.5", "--input", str(path)],
                                  MAX_TENSOR_ENTRIES)
        _refused_under_small_peak(capsys, ["levy", "--s", "0", "--t", "1", "--cells", "4",
                                           "--input", str(path)], MAX_TENSOR_ENTRIES)


def test_largest_admitted_rough_path_tensors(monkeypatch, tmp_path, capsys):
    # 2^24 ito cells and 256^3 = 4096^2 = 2^24 entries pass the guards; the
    # computations are stubbed out
    monkeypatch.setattr(qsde, "ito_residual", lambda *_: {"stub": True})
    monkeypatch.setattr(qsde, "levy_area", lambda *_: WickElement.one(1))
    monkeypatch.setattr(qsde, "chen_residual", lambda *_: WickElement.one(1))
    code, doc, _ = _capture(capsys, ["ito", "--p", "4", "--cells", str(2 ** 24)])
    assert code == 0 and doc["outputs"] == {"stub": True}
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"a": WickElement.from_vector(np.eye(256)[0]).to_json()}))
    for cells, extra in [(4096, []), (256, ["--input", str(path)])]:
        span = ["--s", "0", "--t", "1", "--cells", str(cells), *extra]
        assert _capture(capsys, ["levy", *span])[0] == 0
        assert _capture(capsys, ["chen", "--u", "1", *span])[0] == 0


def _zero_element(d, degree):
    """A pure chaos element whose coefficient is all zero: a few bytes name d**degree entries."""
    return {"d": d, "chaos": {str(degree): {"d": d, "degree": degree, "coeffs": []}}}


_LIL = {"slots": [{"type": "leg"}, {"type": "insert"}, {"type": "leg"}]}


def _product_inputs(tmp_path, a_degree, b_degree, outer_degree):
    """Inputs of multiply (two d = 2 elements) and delta-r (LIL at d = 64, F of degree 2)."""
    pair, lil = tmp_path / "pair.json", tmp_path / "lil.json"
    pair.write_text(json.dumps({"a": _zero_element(2, a_degree), "b": _zero_element(2, b_degree)}))
    lil.write_text(json.dumps({
        "pattern": _LIL, "f": {"d": 64, "degree": 2, "coeffs": []},
        "operators": [_zero_element(64, outer_degree), _zero_element(64, 1),
                      _zero_element(64, 1)]}))
    return [["multiply", "--q", "0.5", "--input", str(pair)],
            ["delta-r", "--q", "0.5", "--input", str(lil)]]


def test_large_products_are_refused_before_building(tmp_path, capsys):
    # the top chaos is the sum of the operands' top degrees: 2^(12+13) for
    # multiply, and 64^(2+1+1+1) for delta-r
    for argv in _product_inputs(tmp_path, 12, 13, 1):
        _refused_under_small_peak(capsys, argv, MAX_TENSOR_ENTRIES)


def test_largest_admitted_products(monkeypatch, tmp_path, capsys):
    # 2^(12+12) and 64^(2+0+1+1) = 2^24 entries pass the guards; the products
    # are stubbed out
    monkeypatch.setattr(wickalg, "multiply", lambda *_: WickElement.one(1))
    monkeypatch.setattr(polywick, "delta_R", lambda *_: WickElement.one(1))
    for argv in _product_inputs(tmp_path, 12, 12, 0):
        assert _capture(capsys, argv)[0] == 0


def test_large_sector_matrices_are_refused_before_building(tmp_path, capsys):
    # norm --cutoff stacks the sectors 0..cutoff: (cutoff + 1)^2 entries at
    # d = 1, and (2^(cutoff+1) - 1)^2 at d = 2
    path = tmp_path / "element.json"
    for d, cutoff in [(1, 4096), (1, 10 ** 9), (2, 12)]:
        path.write_text(json.dumps({"element": _zero_element(d, 1)}))
        _refused_under_small_peak(capsys, ["norm", "--q", "0.5", "--input", str(path),
                                           "--cutoff", str(cutoff)], MAX_TENSOR_ENTRIES)


def test_largest_admitted_sector_matrices(monkeypatch, tmp_path, capsys):
    # 4096^2 entries at d = 1 and 4095^2 at d = 2 pass the guard; the operator
    # and its norm are stubbed out
    monkeypatch.setattr(wickalg, "to_operator", lambda *_: SimpleNamespace(exact_sectors={0}))
    monkeypatch.setattr(cli.fock, "operator_norm", lambda *_: 1.0)
    path = tmp_path / "element.json"
    for d, cutoff in [(1, 4095), (2, 11)]:
        path.write_text(json.dumps({"element": _zero_element(d, 1)}))
        code, doc, _ = _capture(capsys, ["norm", "--q", "0.5", "--input", str(path),
                                         "--cutoff", str(cutoff)])
        assert code == 0 and doc["outputs"]["operator_norm_estimate"] == 1.0


@pytest.mark.parametrize("doc", [
    {"a": WickElement.one(3).to_json()},  # d = 3 at 4 cells
    {"b": 1},
    {},
])
@pytest.mark.parametrize("command", [["levy"], ["chen", "--u", "0.5"]])
def test_inserted_element_is_checked(command, doc, tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _capture(capsys, [*command, "--q", "0.5", "--s", "0", "--t", "1",
                                     "--cells", "4", "--input", str(path)])
    assert code == 2
    assert out["outputs"]["code"] == "ValueError"
    assert ("d = 3" if "a" in doc else "'a'") in out["outputs"]["message"]


@pytest.mark.parametrize("t,message", [
    ("1", "t + dt = 1.5 passes the horizon 1.0 on the 2-cell grid"),
    ("0.3", "t = 0.3 must be a point of every grid in the sweep [2, 4, 8, 16]"),
])
def test_ito_endpoint_errors_name_the_sweep(t, message, capsys):
    code, out, _ = _capture(capsys, ["ito", "--p", "3", "--cells", "16", "--t", t])
    assert code == 2
    assert out["outputs"]["code"] == "ValueError"
    assert message in out["outputs"]["message"]


def test_cosets_command(capsys):
    code, doc, _ = _capture(capsys, ["cosets", "--n", "3", "--k", "1"])
    assert code == 0
    assert [r["perm"] for r in doc["outputs"]["reps"]] == \
        [[1, 2, 3], [2, 1, 3], [2, 3, 1]]


def test_output_is_deterministic_modulo_elapsed(capsys):
    argv = ["pairings", "--n", "5", "--seed", "7"]
    _, _, first = _capture(capsys, argv)
    _, _, second = _capture(capsys, argv)
    assert _strip_elapsed(first) == _strip_elapsed(second)


@pytest.mark.parametrize("argv,golden", [
    (["pairings", "--n", "4", "--seed", "1"], "golden_pairings_n4.json"),
    (["moment", "--q", "0.5", "--word", "abab", "--seed", "1"],
     "golden_moment_abab.json"),
])
def test_golden_file_regression(argv, golden, capsys):
    code, _, text = _capture(capsys, argv)
    assert code == 0
    frozen = (GOLDEN / golden).read_text(encoding="utf-8")
    assert _strip_elapsed(text) == frozen


def test_float_formatting_17_digits():
    text = jsonio.dumps({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


def test_computation_error_exit_code(capsys):
    code, doc, _ = _capture(capsys, ["chen", "--s", "0.5", "--u", "0.25",
                                     "--t", "1.0", "--cells", "8"])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["outputs"]["code"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["pairings", "--n", "-3"],
    ["pairings", "--n", "4", "--k", "-1"],
    ["moment", "--q", "nan", "--word", "abab"],
    ["moment", "--q", "2", "--word", "abab"],
])
def test_bad_input_is_structured_error(argv, capsys):
    code, doc, _ = _capture(capsys, argv)
    assert code == 2
    assert doc["status"] == "error"
    assert set(doc["outputs"]) == {"code", "message"}


def test_multiply_with_input_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    f, g = rng.standard_normal(2), rng.standard_normal(2)
    a = WickElement.from_vector(f)
    b = WickElement.from_vector(g)
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"a": a.to_json(), "b": b.to_json()}))
    out_path = tmp_path / "out.json"
    code, doc, _ = _capture(capsys, ["multiply", "--q", "0.5",
                                     "--input", str(path),
                                     "--output", str(out_path)])
    assert code == 0
    element = WickElement.from_json(doc["outputs"]["element"])
    assert element.allclose(expand_field_product([f, g], 0.5), 1e-12)
    assert json.loads(out_path.read_text())["status"] == "ok"


def test_wick_expand_command(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"vectors": [[1.0, 0.0], [1.0, 0.0]]}))
    code, doc, _ = _capture(capsys, ["wick-expand", "--q", "0.25",
                                     "--input", str(path)])
    assert code == 0
    el = WickElement.from_json(doc["outputs"]["element"])
    assert el.coeff(0).data == pytest.approx(1.0)


def test_wick_expand_refuses_a_huge_tensor_before_building_it(tmp_path, capsys):
    # 3 vectors at d = 2048 ask for 2048^3 entries (64 GiB); the first pair
    # product alone would be 32 MiB
    d = 2048
    assert d ** 3 > MAX_TENSOR_ENTRIES
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"vectors": [[1.0] * d] * 3}))
    tracemalloc.start()
    try:
        code, doc, _ = _capture(capsys, ["wick-expand", "--q", "0.5", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert doc["outputs"]["code"] == "ValueError"
    assert set(doc["outputs"]) == {"code", "message"}
    assert peak < 8 * 2 ** 20


BAD_VECTORS = [
    5, [], [1.0, 2.0], {"0": [1.0]}, [[1.0], "ab"], [[], []], [[1.0], [1.0, 2.0]],
    [[[1.0]], [[2.0]]], [[None, 1.0]], [["1", 2.0]], [[True, 1.0]],
]


@pytest.mark.parametrize("vectors", BAD_VECTORS)
def test_wick_expand_bad_vectors_are_structured_errors(vectors, tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"vectors": vectors}))
    code, doc, _ = _capture(capsys, ["wick-expand", "--q", "0.5", "--input", str(path)])
    assert code == 2
    assert set(doc["outputs"]) == {"code", "message"}


def test_moment_with_input_vectors(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]}))
    code, doc, _ = _capture(capsys, ["moment", "--q", "0.5", "--input", str(path)])
    assert code == 0
    assert doc["outputs"]["value"] == 0.5


# 1e400 parses as an infinite float
@pytest.mark.parametrize("text", [json.dumps(v) for v in BAD_VECTORS] + ["[[1e400]]"])
def test_moment_bad_vectors_are_structured_errors(text, tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text('{"vectors": %s}' % text)
    code, doc, _ = _capture(capsys, ["moment", "--q", "0.5", "--input", str(path)])
    assert code == 2
    assert doc["outputs"]["code"] == "ValueError"
    assert set(doc["outputs"]) == {"code", "message"}


def test_memory_error_is_structured_error(monkeypatch, tmp_path, capsys):
    def out_of_memory(*_):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr(wickalg, "expand_field_product", out_of_memory)
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"vectors": [[1.0, 0.0], [0.0, 1.0]]}))
    code, doc, _ = _capture(capsys, ["wick-expand", "--q", "0.5", "--input", str(path)])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["outputs"] == {"code": "MemoryError", "message": "Unable to allocate 64.0 GiB"}


def test_counterterm_families(capsys):
    code, doc, _ = _capture(capsys, ["counterterm", "--family", "quartic2d"])
    assert code == 0
    assert doc["outputs"]["polynomial"] == [
        {"q": 0, "delta": 0, "count": 2}, {"q": 0, "delta": 1, "count": 1}]
    code, doc, _ = _capture(capsys, ["counterterm", "--family", "quartic3d"])
    assert doc["outputs"]["config_count"] == 18
    assert doc["outputs"]["eval_at_one"] == 18.0


def test_counterterm_with_input_configs(tmp_path, capsys):
    path = tmp_path / "c.json"
    configs = [{"n_legs": n, "inserts": list(ins), "pairs": [list(p) for p in pi]}
               for n, ins, pi in quartic_2d_configs()]
    path.write_text(json.dumps({"configs": configs}))
    code, doc, _ = _capture(capsys, ["counterterm", "--input", str(path)])
    assert code == 0
    assert doc["outputs"]["polynomial"] == [
        {"q": 0, "delta": 0, "count": 2}, {"q": 0, "delta": 1, "count": 1}]


def _config(**changes):
    return {"n_legs": 2, "inserts": [3], "pairs": [[1, 2]], **changes}


@pytest.mark.parametrize("configs", [
    5, [5], None, {"0": _config()}, [_config(pairs=[[1, "a"]])], [_config(inserts=[3.5])],
    [_config(inserts=3)], [_config(inserts=[True], pairs=[[2, 3]])], [_config(n_legs=2.0)],
    [_config(n_legs=True)], [_config(n_legs=None)], [_config(pairs=[1, 2])],
    [_config(pairs=[[1, 2, 3]])], [_config(pairs=[[1.0, 2.0]])], [_config(pairs=5)],
    [{"n_legs": 2, "inserts": [3]}],
    [_config(pairs=[[1, 3]])], [_config(n_legs=4)], [_config(inserts=[2, 2])],
])
def test_counterterm_bad_configs_are_structured_errors(configs, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"configs": configs}))
    code, doc, _ = _capture(capsys, ["counterterm", "--input", str(path)])
    assert code == 2
    assert doc["outputs"]["code"] == "ValueError"
    assert set(doc["outputs"]) == {"code", "message"}


def test_bphz_command(capsys):
    code, doc, _ = _capture(capsys, ["bphz-constant", "--epsilon", "0.1",
                                     "--mollifier", "triangle"])
    assert code == 0
    assert abs(doc["outputs"]["value"] - 0.5) <= 1e-6


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("mollifier,eps", [("triangle", "1e-154"), ("quartic", "1e-155"),
                                         ("triangle", "1e-155"), ("quartic", "1e-320"),
                                         ("triangle", "1e-320")])
def test_bphz_command_names_a_non_finite_constant(mollifier, eps, capsys):
    code, doc, _ = _capture(capsys, ["bphz-constant", "--epsilon", eps,
                                     "--mollifier", mollifier])
    assert code == 2 and doc["outputs"]["code"] == "ValueError"
    assert f"eps = {float(eps)}" in doc["outputs"]["message"]


def test_ito_command_schema(capsys):
    code, doc, _ = _capture(capsys, ["ito", "--p", "2", "--q", "0.5",
                                     "--cells", "16", "--t", "0.5"])
    assert code == 0
    assert doc["outputs"]["matched_convention"] == "unordered"


@pytest.mark.parametrize("cells,grids", [("1", [1]), ("3", [2, 3]), ("64", [8, 16, 32, 64])])
def test_ito_sweep_is_capped_at_the_given_grid(cells, grids, capsys):
    code, doc, _ = _capture(capsys, ["ito", "--p", "3", "--cells", cells, "--t", "0"])
    assert code == 0
    assert doc["outputs"]["grids"] == grids


def test_verify_single_suite(capsys):
    code, doc, _ = _capture(capsys, ["verify", "--suite", "counterterm"])
    assert code == 0
    assert doc["outputs"]["passed"] is True
    names = [c["name"] for s in doc["outputs"]["suites"] for c in s["checks"]]
    assert "quartic-3d-counterterm" in names


def test_verify_all_suites(capsys):
    code, doc, _ = _capture(capsys, ["verify", "--suite", "all"])
    assert code == 0
    assert doc["outputs"]["passed"] is True
    suites = doc["outputs"]["suites"]
    assert [suite["suite"] for suite in suites] == list(verify.SUITES)
    assert len(suites) == 9
    assert all(suite["passed"] and suite["checks"] for suite in suites)
    assert all(check["passed"] for suite in suites for check in suite["checks"])


def test_verify_output_deterministic_for_seed(capsys):
    argv = ["verify", "--suite", "commutation", "--seed", "3"]
    _, _, first = _capture(capsys, argv)
    _, _, second = _capture(capsys, argv)
    assert _strip_elapsed(first) == _strip_elapsed(second)


def test_verify_negative_q_grid(capsys):
    code, doc, _ = _capture(capsys, ["verify", "--suite", "commutation",
                                     "--q-grid", "-0.5,0,0.5"])
    assert code == 0
    assert doc["outputs"]["passed"] is True


@pytest.mark.parametrize("grid", ["nan", "7", ",", "", "inf", "-1.5,0", "0.5,nan", "x"])
def test_verify_bad_q_grid_is_structured_error(grid, capsys):
    code, doc, _ = _capture(capsys, ["verify", "--suite", "commutation", "--q-grid", grid])
    assert code == 2
    assert set(doc["outputs"]) == {"code", "message"}


@pytest.mark.parametrize("argv", [
    ["--suite", "commutation", "--chaos", "99"],
    ["--suite", "chen", "--d", "3"],
    ["--suite", "ito", "--d", "2"],
    ["--suite", "counterterm", "--q-grid", "0.5"],
    ["--suite", "bphz-constant", "--chaos", "1"],
    ["--suite", "wick-oracle", "--d", "0"],
    ["--suite", "wick-oracle", "--chaos", "-1"],
])
def test_verify_refuses_an_option_no_suite_reads_or_out_of_range(argv, capsys):
    code, doc, _ = _capture(capsys, ["verify", *argv])
    assert code == 2
    assert doc["status"] == "error"
    assert set(doc["outputs"]) == {"code", "message"}


def test_verify_suites_name_only_cli_options():
    for suite in verify.SUITES.values():
        assert set(inspect.signature(suite).parameters) <= {"seed", "q_grid", "d", "chaos"}


def test_verify_forwards_chaos_zero(monkeypatch, capsys):
    seen = []
    real = verify._random_element

    def recording(rng, d, max_chaos):
        seen.append((d, max_chaos))
        return real(rng, d, max_chaos)

    monkeypatch.setattr(verify, "_random_element", recording)
    code, doc, _ = _capture(capsys, ["verify", "--suite", "wick-oracle", "--chaos", "0",
                                     "--d", "3", "--q-grid", "0.5"])
    assert code == 0
    assert doc["inputs"]["chaos"] == 0
    assert seen and set(seen) == {(3, 0)}


@pytest.mark.parametrize("argv", [
    ["--suite", "commutation", "--d", "6"],  # eye(6^5) for the sector-5 annihilation block
    ["--suite", "commutation", "--d", "7"],
    ["--suite", "wick-oracle", "--d", "5"],  # 5^11 at chaos 2
    ["--suite", "wick-oracle", "--d", "4", "--chaos", "0"],  # 4^13
    ["--suite", "wick-oracle", "--chaos", "13"],  # 2^26
    ["--suite", "norm-submult", "--chaos", "13"],  # the product's top chaos, 2^26
    ["--suite", "norm-submult", "--chaos", "30"],
    ["--suite", "opbounds", "--d", "4"],  # 4^13
    ["--suite", "disentangle", "--chaos", "6"],  # the LILIL left side, 2^27
    ["--suite", "disentangle", "--d", "5"],  # 5^11 at chaos 2
    ["--suite", "wick-oracle", "--chaos", "10"],  # 7·(2^23 - 1) at cutoff 22
])
def test_verify_sizes_are_refused_before_building(argv, capsys):
    _refused_under_small_peak(capsys, ["verify", *argv], MAX_TENSOR_ENTRIES)


def test_degrees_past_numpy_axes_are_refused_at_d1(tmp_path, capsys):
    # at d = 1 every tensor has one entry, so only the degree can be too large:
    # numpy arrays have at most 64 axes, and the refusal names the degree
    _refused_under_small_peak(capsys, ["verify", "--suite", "wick-oracle", "--d", "1",
                                       "--chaos", "40"], "degree 80")
    _refused_under_small_peak(capsys, ["verify", "--suite", "norm-submult", "--d", "1",
                                       "--chaos", "33"], "degree 66")
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": _zero_element(1, 33), "b": _zero_element(1, 33)}))
    _refused_under_small_peak(capsys, ["multiply", "--q", "0.5", "--input", str(path)],
                              "degree 66")


def test_largest_admitted_degree_at_d1(monkeypatch, tmp_path, capsys):
    # two chaos-32 operands make a degree-64 product, which passes the guard;
    # the product is stubbed out
    monkeypatch.setattr(wickalg, "multiply", lambda *_: WickElement.one(1))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": _zero_element(1, 32), "b": _zero_element(1, 32)}))
    assert _capture(capsys, ["multiply", "--q", "0.5", "--input", str(path)])[0] == 0


class _SuiteStarted(Exception):
    """Raised by a stubbed random generator: the suite got past its size guard."""


@pytest.mark.parametrize("argv", [
    ["--suite", "commutation", "--d", "5"],  # 5^10
    ["--suite", "wick-oracle", "--d", "4"],  # 4^11
    ["--suite", "wick-oracle", "--d", "3", "--chaos", "0"],  # 3^13
    ["--suite", "wick-oracle", "--chaos", "9"],  # 7·(2^21 - 1) < 2^24 at cutoff 20
    ["--suite", "norm-submult", "--chaos", "12"],  # 2^24
    ["--suite", "opbounds", "--d", "3"],  # 3^13
    ["--suite", "disentangle", "--chaos", "5"],  # 2^23
    ["--suite", "disentangle", "--d", "4"],  # 4^11
    ["--suite", "wick-oracle", "--d", "1", "--chaos", "32"],  # degree 64
    ["--suite", "norm-submult", "--d", "1", "--chaos", "32"],  # degree 64
    ["--suite", "wick-oracle", "--d", "4", "--chaos", "3"],  # 4^12 at cutoff 8
])
def test_largest_admitted_verify_sizes(argv, monkeypatch):
    # each suite is stubbed at its first step after the guard, drawing its generator
    def started(*_):
        raise _SuiteStarted

    monkeypatch.setattr(np.random, "default_rng", started)
    with pytest.raises(_SuiteStarted):
        run(["verify", *argv])


@pytest.mark.parametrize("d,chaos", [(2, 4), (2, 5), (3, 3)])
def test_wick_oracle_runs_past_chaos_three(d, chaos, capsys):
    # the cutoff grows with the chaos, max(6, 2·chaos + 2), so sectors 0..2 stay exact
    code, doc, _ = _capture(capsys, ["verify", "--suite", "wick-oracle", "--d", str(d),
                                     "--chaos", str(chaos), "--q-grid", "0.5"])
    assert code == 0, doc["outputs"]
    (check,) = doc["outputs"]["suites"][0]["checks"]
    assert check["passed"] and check["max_deviation"] <= 1e-10


def test_only_verify_reads_a_seed(monkeypatch, capsys):
    # the other commands draw nothing at random, so an unreadable seed stops verify alone
    monkeypatch.setenv("QFOCK_SEED", "not-a-number")
    assert _capture(capsys, ["pairings", "--n", "4"])[0] == 0
    code, doc, _ = _capture(capsys, ["verify", "--suite", "counterterm"])
    assert code == 2 and doc["outputs"]["code"] == "ValueError"
    assert [name for name, obj in vars(cli).items() if name.startswith("_cmd_")
            and list(inspect.signature(obj).parameters) != ["args"]] == []


def test_verify_seed_is_never_refused(capsys):
    code, _, _ = _capture(capsys, ["verify", "--suite", "counterterm", "--seed", "3"])
    assert code == 0


def test_verify_nan_deviation_fails(monkeypatch, capsys):
    monkeypatch.setattr(verify, "oracle_deviation", lambda *_: float("nan"))
    assert verify.suite_wick_oracle(q_grid=(0.5,))["passed"] is False
    code, doc, _ = _capture(capsys, ["verify", "--suite", "wick-oracle", "--q-grid", "0.5"])
    assert code == 2
    assert doc["status"] == "error"
    # the failed report is rendered, with the NaN metric as text
    assert doc["outputs"]["code"] == "verification-failed"
    (check,) = doc["outputs"]["suites"][0]["checks"]
    assert check["name"] == "product-vs-matrix-oracle" and check["passed"] is False
    assert check["max_deviation"] == "nan"


def test_verify_nan_margin_fails(monkeypatch):
    monkeypatch.setattr(wickalg, "triple_norm", lambda *_: float("nan"))
    check = verify.suite_norm_submult(q_grid=(0.5,))["checks"][0]
    assert check["passed"] is False and check["violations"] == 200


def test_verify_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("QFOCK_SEED", "99")
    code, doc, _ = _capture(capsys, ["verify", "--suite", "counterterm"])
    assert code == 0
    assert doc["inputs"]["suite"] == "counterterm"


def test_norm_command(tmp_path, capsys):
    el = WickElement.from_vector(np.array([1.0, 0.0]))
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"element": el.to_json()}))
    code, doc, _ = _capture(capsys, ["norm", "--q", "0.0", "--input", str(path),
                                     "--cutoff", "6"])
    assert code == 0
    assert doc["outputs"]["triple_norm"] == pytest.approx(2.0)
    assert doc["outputs"]["operator_norm_estimate"] <= 2.0 + 1e-9


def test_norm_cutoff_below_chaos_degree_is_truncation_error(tmp_path, capsys):
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"element": wick_product_vectors([[1.0, 0.0]] * 3, 0.5).to_json()}))
    code, doc, _ = _capture(capsys, ["norm", "--q", "0.5", "--input", str(path), "--cutoff", "2"])
    assert code == 2
    assert doc["outputs"]["code"] == "TruncationError"


@pytest.mark.parametrize("q", ["0.9972", "0.999", "-0.999"])
def test_norm_near_q_one_is_structured_error(q, tmp_path, capsys):
    path = tmp_path / "el.json"
    path.write_text(json.dumps({"element": WickElement.from_vector([1.0, 0.0]).to_json()}))
    code, doc, _ = _capture(capsys, ["norm", "--q", q, "--input", str(path)])
    assert code == 2
    assert doc["outputs"]["code"] == "ValueError"
    assert q in doc["outputs"]["message"]


def _chaos_one(coeffs):
    return {"d": 2, "chaos": {"1": {"d": 2, "degree": 1, "coeffs": coeffs}}}


@pytest.mark.parametrize("doc", [
    {"element": _chaos_one([{"word": [-1], "value": 1.0}])},
    {"element": _chaos_one([{"word": [2], "value": 1.0}])},
    {"element": _chaos_one([{"word": [0, 1], "value": 1.0}])},
    {"element": _chaos_one([{"word": [1], "value": 1.0}, {"word": [1], "value": 2.0}])},
    {"element": {"d": 2, "chaos": {"1": [1.0, 2.0]}}},
    {"element": [1.0, 2.0]},
    [1.0, 2.0],
    {"element": {"d": -3, "chaos": {}}},
    {"element": {"d": True, "chaos": {"1": {"d": 1, "degree": 1, "coeffs": []}}}},
])
def test_norm_bad_tensor_is_structured_error(doc, tmp_path, capsys):
    path = tmp_path / "el.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _capture(capsys, ["norm", "--q", "0.5", "--input", str(path)])
    assert code == 2
    assert out["status"] == "error"
    assert set(out["outputs"]) == {"code", "message"}
    assert out["outputs"]["code"] == "ValueError"


def _delta_r_doc(**changes):
    d = 2
    doc = {
        "pattern": {"slots": [{"type": "leg"}, {"type": "insert"}, {"type": "leg"}]},
        "pi": [],
        "f": {"d": d, "degree": 2, "coeffs": [{"word": [0, 1], "value": 1.0}]},
        "operators": [
            {"d": d, "chaos": {"0": {"d": d, "degree": 0,
                                     "coeffs": [{"word": [], "value": 1.0}]}}},
            {"d": d, "chaos": {"1": {"d": d, "degree": 1,
                                     "coeffs": [{"word": [0], "value": 1.0}]}}},
            {"d": d, "chaos": {"0": {"d": d, "degree": 0,
                                     "coeffs": [{"word": [], "value": 1.0}]}}},
        ],
    }
    return {**doc, **changes}


def test_levy_and_delta_r_commands(tmp_path, capsys):
    code, doc, _ = _capture(capsys, ["levy", "--q", "0.5", "--s", "0.0",
                                     "--t", "1.0", "--cells", "4",
                                     "--side", "L", "--diag-weight", "0.5"])
    assert code == 0
    el = WickElement.from_json(doc["outputs"]["element"])
    assert el.support() == (2,)

    path = tmp_path / "dr.json"
    path.write_text(json.dumps(_delta_r_doc()))
    code, doc, _ = _capture(capsys, ["delta-r", "--q", "0.5", "--input", str(path)])
    assert code == 0
    out = WickElement.from_json(doc["outputs"]["element"])
    assert 3 in out.support()


# F and the outer operators at d = 2, the insert at d = 3
_D3_INSERT = {"operators": [_delta_r_doc()["operators"][0], _zero_element(3, 1),
                            _delta_r_doc()["operators"][2]]}


@pytest.mark.parametrize("changes", [
    {"pattern": [1]},
    {"pattern": {"slots": 5}},
    {"pattern": {"slots": [{"type": "leg"}, 7]}},
    {"pattern": {"slots": [{"type": "bogus"}]}},
    {"pi": 5},
    {"pi": [1, 3]},
    {"pi": [[1, 3, 2]]},
    {"pi": [[1.0, 3.0]]},
    {"pi": [["a", "b"]]},
    {"pi": [[True, 3]]},
    {"pi": [[-1, 3]]},
    {"operators": {"0": {}}},
    {"operators": 3},
    _D3_INSERT,
])
def test_delta_r_bad_input_is_structured_error(changes, tmp_path, capsys):
    path = tmp_path / "dr.json"
    path.write_text(json.dumps(_delta_r_doc(**changes)))
    code, doc, _ = _capture(capsys, ["delta-r", "--q", "0.5", "--input", str(path)])
    assert code == 2
    assert doc["status"] == "error"
    assert set(doc["outputs"]) == {"code", "message"}
    assert doc["outputs"]["code"] == "ValueError"
    if changes is _D3_INSERT:
        assert doc["outputs"]["message"] == "dimension mismatch"


@pytest.mark.parametrize("command,doc,key", [
    ("multiply", {}, "a"),
    ("multiply", {"a": WickElement.one(2).to_json()}, "b"),
    ("norm", {}, "element"),
    ("delta-r", {}, "pattern"),
    *[("delta-r", {k: v for k, v in _delta_r_doc().items() if k != key}, key)
      for key in ("pattern", "f", "operators")],
])
def test_missing_input_key_is_named(command, doc, key, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _capture(capsys, [command, "--q", "0.5", "--input", str(path)])
    assert code == 2
    assert out["outputs"]["code"] == "ValueError"
    assert repr(key) in out["outputs"]["message"]
