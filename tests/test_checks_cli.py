import argparse
import json
import random
import time

import pytest

from arboreal import catalog, checks, hnn
from arboreal.checks import _escalation_stop, run_check
from arboreal.cli import build_parser, main
from arboreal.core import fmt_word, invert_word
from arboreal.hnn import ScaleAction, canonical_vertices


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_check_unknown():
    with pytest.raises(KeyError):
        run_check("no-such-check", {})


def test_check_lifting_report():
    report = run_check("lifting", {"group": "grigorchuk"})
    assert report.ok and report.exit_code() == 0
    assert report.evidence["sigma.lifting"] == "pass"
    decoded = json.loads(report.to_json())
    assert decoded["status"] == "pass"


def test_check_lifting_gs3_inconclusive():
    report = run_check("lifting", {"group": "gs3"})
    assert report.status == "inconclusive"
    assert report.exit_code() == 2


def test_cli_run_lifting(capsys):
    code, out, _ = run_cli(capsys, "run", "lifting", "--group", "grigorchuk")
    assert code == 0
    assert "PASS" in out


def test_cli_run_perm_order(capsys):
    code, out, _ = run_cli(capsys, "run", "perm-order", "--group", "g01inf",
                           "--gens", "a,c", "--level", "3", "--expect", "8",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["evidence"]["order"] == 8


def test_cli_run_hnn_relators_short(capsys):
    code, out, _ = run_cli(capsys, "run", "hnn-relators", "--group", "grigorchuk",
                           "--presentation", "short")
    assert code == 0
    assert "short: pass" in out


def test_cli_run_separation(capsys):
    code, out, _ = run_cli(capsys, "run", "separation", "--group", "g01inf",
                           "--level", "4")
    assert code == 0


def test_cli_run_failing_check_exit_code(capsys):
    code, out, _ = run_cli(capsys, "run", "perm-order", "--group", "g01inf",
                           "--gens", "a,c", "--level", "3", "--expect", "9")
    assert code == 1


def test_cli_run_ggs(capsys):
    code, out, _ = run_cli(capsys, "run", "ggs", "--p", "5", "--e", "1,-1,0,0")
    assert code == 0
    code, _, _ = run_cli(capsys, "run", "ggs", "--p", "3", "--e", "1,-1")
    assert code == 1


def test_cli_unknown_group_usage_error(capsys):
    code, out, err = run_cli(capsys, "run", "lifting", "--group", "bogus")
    assert code == 3
    assert out == "" and err.startswith("arboreal: unknown group 'bogus'")


def test_cli_portrait_deterministic(capsys):
    args = ("portrait", "--group", "grigorchuk", "--element", "d",
            "--depth", "3", "--labels")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert '"root" [label="d [0,1]"]' in out1


def test_cli_portrait_json_matches_figure(capsys):
    code, out, _ = run_cli(capsys, "portrait", "--group", "grigorchuk",
                           "--element", "d", "--depth", "3",
                           "--labels", "--format", "json")
    nodes = {n["vertex"]: n for n in json.loads(out)}
    assert nodes["1"]["section"] == "b"
    assert nodes["11"]["section"] == "c"
    assert nodes["111"]["section"] == "d"
    switches = [v for v, n in nodes.items() if n["perm"] != [0, 1]]
    assert sorted(switches) == ["10", "110"]


def test_cli_portrait_identity(capsys):
    code, out, _ = run_cli(capsys, "portrait", "--group", "grigorchuk",
                           "--element", "1", "--depth", "2", "--format", "json")
    assert code == 0
    assert all(n["perm"] == [0, 1] for n in json.loads(out))


def test_cli_portrait_theta_periodic(capsys):
    code, out, _ = run_cli(capsys, "portrait", "--group", "grigorchuk",
                           "--element", "b", "--theta", "--up", "3", "--down", "3",
                           "--labels", "--format", "json")
    assert code == 0
    nodes = json.loads(out)
    spine = {n["level"]: n["section"] for n in nodes
             if set(n["vertex"].partition(":")[2]) <= {"1"}}
    assert spine == {-3: "b", -2: "c", -1: "d", 0: "b", 1: "c", 2: "d", 3: "b"}


def test_cli_portrait_parse_error(capsys):
    code, _, err = run_cli(capsys, "portrait", "--group", "grigorchuk",
                           "--element", "zz*qq")
    assert code == 3
    # the one handler in cli.main words it as it does for `run`
    run_code, _, run_err = run_cli(capsys, "run", "dilation", "--group", "grigorchuk",
                                   "--element", "zz*qq")
    assert (code, err) == (run_code, run_err) == (3, "arboreal: unknown generator 'zz'\n")


def test_cli_perm_group_orbit(capsys):
    code, out, _ = run_cli(capsys, "perm-group-on-level", "--group", "grigorchuk",
                           "--level", "4", "--orbit", "0000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_size"] == 16


@pytest.mark.parametrize("level,vertex", [("2", "03"), ("1", "5")])
def test_cli_perm_group_orbit_rejects_letters_outside_alphabet(capsys, level, vertex):
    code, out, err = run_cli(capsys, "perm-group-on-level", "--group", "grigorchuk",
                             "--level", level, "--orbit", vertex)
    assert code == 3
    assert out == "" and "outside 0..1" in err


def test_cli_stabilizer(capsys):
    code, out, _ = run_cli(capsys, "stabilizer-of-first-level", "--group", "g01inf")
    assert code == 0
    assert out.startswith("< b, c, d,")


def test_run_stabilizer_vertex_matches_subcommand(capsys):
    code, out, _ = run_cli(capsys, "stabilizer-of-first-level", "--group", "grigorchuk",
                           "--vertex", "01", "--format", "json")
    assert code == 0
    words = json.loads(out)["generators"]
    code, out, _ = run_cli(capsys, "run", "stabilizer-of-first-level", "--group", "grigorchuk",
                           "--vertex", "01", "--format", "json")
    assert code == 0
    evidence = json.loads(out)["evidence"]
    assert evidence["words"] == words and evidence["count"] == len(words)
    for bad in ("0x", "5"):
        code, _, err = run_cli(capsys, "run", "stabilizer-of-first-level",
                               "--group", "grigorchuk", "--vertex", bad)
        assert code == 3 and err.startswith("arboreal: ")


def test_cli_intersection_transcript(capsys):
    code, out, _ = run_cli(capsys, "intersection", "--group", "g01inf",
                           "--level", "4",
                           "--gens-a", "b,c,d,a*b*a,a*c*a,a*d*a",
                           "--gens-b", "(1,a),(1,c)")
    assert code == 0
    assert "Group(())" in out


@pytest.mark.parametrize("gens_a,expected", [("(ad)^2,b", 0), ("b,(a*c)", 1)])
def test_cli_intersection_reads_bracketed_words(capsys, gens_a, expected):
    code, out, err = run_cli(capsys, "intersection", "--group", "g01inf", "--level", "3",
                             "--gens-a", gens_a, "--gens-b", "(1,a)")
    assert (code, err) == (expected, "")


def test_cli_intersection_nontrivial_exit(capsys):
    code, out, _ = run_cli(capsys, "intersection", "--group", "grigorchuk",
                           "--level", "3", "--gens-a", "a,b", "--gens-b", "a,b")
    assert code == 1


def test_cli_catalog(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "grigorchuk" in out
    code, out, _ = run_cli(capsys, "catalog", "--id", "lamplighter")
    assert json.loads(out)["substitutions"]["sigma0"]["letter"] == 0


def test_cli_acceptance_single(capsys):
    code, out, _ = run_cli(capsys, "acceptance", "--criterion", "2")
    assert code == 0
    assert "PASS" in out


def test_cli_acceptance_json_is_valid(capsys):
    code, out, _ = run_cli(capsys, "acceptance", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 9
    assert all(r["status"] == "pass" for r in reports)


def test_cli_spec_file(tmp_path, capsys):
    spec = tmp_path / "basilica.json"
    spec.write_text(json.dumps({
        "wreath": "a=(b,1)(1,2),b=(a,1)",
        "substitutions": {"sigma": {"letter": 0, "images": {"a": "b", "b": "a^2"}}},
        "default_sigma": "sigma",
    }))
    code, out, _ = run_cli(capsys, "run", "lifting", "--spec", str(spec))
    assert code == 0

    wreath = tmp_path / "dihedral.txt"
    wreath.write_text("a=(1,1)(1,2),b=(a,b)")
    code, out, _ = run_cli(capsys, "perm-group-on-level", "--spec", str(wreath),
                           "--level", "3", "--format", "json")
    assert code == 0
    # the infinite dihedral group maps onto the dihedral group of order 2^(n+1)
    assert json.loads(out)["order"] == 16


def test_cli_prime_alphabet_of_257_letters(tmp_path, capsys):
    # one coordinate per byte cannot hold 257 letters: this tree chain's
    # prime lies beyond the packed bound and goes to the generic chain
    spec = tmp_path / "z257.json"
    images = ",".join(str((x + 256) % 257) for x in range(257))
    spec.write_text(json.dumps({"id": "z257", "wreath": f"a=({','.join(['1'] * 257)})[{images}]"}))
    code, out, _ = run_cli(capsys, "perm-group-on-level", "--spec", str(spec), "--level", "1",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 257
    code, out, _ = run_cli(capsys, "run", "perm-order", "--spec", str(spec), "--level", "1",
                           "--expect", "257", "--format", "json")
    assert code == 0
    assert json.loads(out)["evidence"]["order"] == 257
    # a lies in <a^2>, so the intersection is not trivial (exit 1)
    code, out, _ = run_cli(capsys, "intersection", "--spec", str(spec), "--level", "1",
                           "--gens-a", "a", "--gens-b", "a^2", "--format", "json")
    assert code == 1
    assert json.loads(out)["intersection_trivial"] is False


def test_cli_usage_error_exit_3(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "not-a-check"])
    assert excinfo.value.code == 3


def test_checks_witnesses(capsys):
    report = run_check("witnesses", {"group": "grigorchuk"})
    assert report.ok
    assert report.evidence["witnesses"]["a"] == "a*c*a"


def test_checks_spine_and_dilation():
    assert run_check("spine", {"group": "basilica", "depth": 12}).ok
    report = run_check("dilation", {"group": "basilica", "element": "t", "expect": 1})
    assert report.ok


def _shifted_digits(theta_map):
    """theta(e) with every output digit moved by one mod d: an isometry, but not theta(e)."""
    def faulty(e, action):
        apply, d = theta_map(e, action), action.automaton.size

        def shifted(offset, digits):
            offset, digits = apply(offset, digits)
            return offset, tuple((x + 1) % d for x in digits)
        return shifted
    return faulty


def _copy_depth_off_by_one(prefix_image):
    """The k digits above the dot of a window in the copy T^k read at depth k - 1
    (copy 0 stays right: depth -1 is no depth, and the memo has no entry for it)."""
    return lambda self, word, k, v: prefix_image(self, word, max(k - 1, 0), v)


@pytest.mark.parametrize("fault", ["shifted digits", "copy depth off by one"])
def test_spine_and_criterion_7_catch_a_wrong_theta(monkeypatch, capsys, fault):
    # both faults keep every spine vertex fixed and every dilation exponent;
    # spine's comparison with the written-out sigma^m(g) fails them
    if fault == "shifted digits":
        monkeypatch.setattr(hnn, "theta_map", _shifted_digits(hnn.theta_map))
    else:
        monkeypatch.setattr(ScaleAction, "prefix_image",
                            _copy_depth_off_by_one(ScaleAction.prefix_image))
    groups = [entry.id for entry in catalog.entries_with_sigma()]
    for gid in groups:
        report = run_check("spine", {"group": gid})
        assert report.status == "fail" and report.evidence["mismatches"], gid
    code, out, err = run_cli(capsys, "acceptance", "--criterion", "7")
    assert code == 1 and err == ""
    assert out.startswith("7 end fixing and dilation exponents: FAIL")
    assert all(f"spine[{gid}]: fail, expected pass" in out for gid in groups)


def test_checks_two_transitivity_and_transitivity():
    assert run_check("two-transitivity", {"group": "basilica", "level": 4}).ok
    assert run_check("transitivity", {"group": "grigorchuk",
                                      "copies": 2, "length": 2}).ok


def test_checks_stabilizer_projection():
    assert run_check("stabilizer-projection", {"group": "grigorchuk", "depth": 4}).ok


def test_check_evidence_deterministic():
    # identical params give identical statuses and evidence (timing aside)
    first = run_check("dilation", {"group": "basilica", "element": "t*a*T*b"})
    second = run_check("dilation", {"group": "basilica", "element": "t*a*T*b"})
    assert (first.status, first.evidence) == (second.status, second.evidence)
    w1 = run_check("witnesses", {"group": "grigorchuk"})
    w2 = run_check("witnesses", {"group": "grigorchuk"})
    assert w1.evidence == w2.evidence


def test_cli_portrait_deep_nesting_is_a_usage_error(capsys):
    element = "(" * 3000 + "a" + ")" * 3000
    code, out, err = run_cli(capsys, "portrait", "--group", "grigorchuk", "--element", element)
    assert code == 3
    assert out == "" and "nested deeper" in err


@pytest.mark.parametrize("bound", ["--depth", "--up"])
def test_cli_portrait_past_the_point_limit_is_refused(capsys, monkeypatch, bound):
    # refused before a section or sigma power is written: neither 2^100000
    # vertices nor sigma^100000(a) could be built
    base = ["portrait", "--group", "grigorchuk", "--element", "a"]
    base += ["--theta", "--down", "0"] if bound == "--up" else []
    code, out, err = run_cli(capsys, *base, bound, "100000")
    assert (code, out) == (3, "") and "2^100000 points exceed" in err
    assert err.endswith("(set ARBOREAL_MAX_POINTS to raise it)\n")
    # a deepest level of exactly the limit is drawn
    monkeypatch.setenv("ARBOREAL_MAX_POINTS", "8")
    assert run_cli(capsys, *base, bound, "3")[0] == 0
    assert run_cli(capsys, *base, bound, "4")[0] == 3


def test_cli_missing_spec_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "lifting", "--spec", str(tmp_path / "missing.json"))
    assert code == 3
    assert out == "" and err.startswith("arboreal: ")


BS13_BUNDLE = {
    "wreath": "a=(c,b)(1,2),b=(a,c),c=(b,a)",
    "substitutions": {"sigma": {"letter": 0, "images": {"a": "b", "b": "c", "c": "b*c^-1*b"}}},
    "default_sigma": "sigma",
}
BS13_AFFINE = {"relabel": [[0, 1], [1, 0]],
               "maps": {"a": ["1/3", "-1/3"], "b": ["1/3", "-2/3"], "c": ["1/3", "0"]}}


def _bs13_seed2_text():
    """Four c^-1 r c in BS(1,3), with c of 32 mixed-sign letters from Random(2)."""
    rng = random.Random(2)
    relators = catalog.get("bs13").relators(1)
    word = ()
    for _ in range(4):
        c = tuple((rng.choice("abc"), rng.choice((1, -1))) for _ in range(32))
        word += invert_word(c) + rng.choice(relators)[1] + c
    return fmt_word(word)


def test_cli_spec_affine_key_gives_the_model(capsys, tmp_path):
    spec = tmp_path / "bs13.json"
    spec.write_text(json.dumps(BS13_BUNDLE | {
        "affine": BS13_AFFINE, "hnn_presentations": {"seed2": [_bs13_seed2_text()]}}))
    assert catalog.load_spec(str(spec)).automaton.affine is not None
    t0 = time.process_time()
    code, out, _ = run_cli(capsys, "run", "hnn-relators", "--spec", str(spec))
    assert code == 0 and "seed2: pass" in out
    assert time.process_time() - t0 < 2


def test_cli_spec_uncertifiable_affine_key_is_a_usage_error(capsys, tmp_path):
    spec = tmp_path / "bs13.json"
    perturbed = {"relabel": BS13_AFFINE["relabel"],
                 "maps": BS13_AFFINE["maps"] | {"b": ["1/3", "-1/3"]}}
    period_1 = {"relabel": [[0, 1]], "maps": BS13_AFFINE["maps"]}
    for affine, says in ((perturbed, "at word c, phase 1, letter 0"),
                         (period_1, "at word a, phase 0, letter 0"),
                         (["x"], "malformed affine model")):
        spec.write_text(json.dumps(BS13_BUNDLE | {"affine": affine}))
        code, out, err = run_cli(capsys, "run", "lifting", "--spec", str(spec))
        assert code == 3 and out == ""
        assert err.startswith("arboreal: ") and says in err and "Traceback" not in err


@pytest.mark.parametrize("bundle, key", [
    ({"wreath": 5}, "wreath"),
    (BS13_BUNDLE | {"substitutions": [1]}, "substitutions"),
    (BS13_BUNDLE | {"presentation": 3}, "presentation"),
    (BS13_BUNDLE | {"hnn_presentations": ["t*a*T*b^-1"]}, "hnn_presentations"),
])
def test_cli_spec_value_of_the_wrong_type_is_a_usage_error(capsys, tmp_path, bundle, key):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(bundle))
    code, out, err = run_cli(capsys, "run", "lifting", "--spec", str(spec))
    assert code == 3 and out == ""
    assert err.startswith("arboreal: ") and repr(key) in err and "Traceback" not in err


SIGMA = BS13_BUNDLE["substitutions"]["sigma"]


@pytest.mark.parametrize("inner, key", [
    ({"substitutions": {"sigma": 1}}, "substitutions.sigma"),
    ({"substitutions": {"sigma": SIGMA | {"letter": 2}}}, "substitutions.sigma.letter"),
    ({"substitutions": {"sigma": SIGMA | {"letter": "0"}}}, "substitutions.sigma.letter"),
    ({"substitutions": {"sigma": SIGMA | {"images": ["b"]}}}, "substitutions.sigma.images"),
    ({"substitutions": {"sigma": SIGMA | {"images": {"a": 5}}}}, "substitutions.sigma.images"),
    ({"presentation": {"iterated": 5}}, "presentation.iterated"),
    ({"presentation": {"fixed": ["a^2", 2]}}, "presentation.fixed"),
    ({"presentation": {"iterated": ["a^2"], "phi": "b"}}, "presentation.phi"),
    ({"hnn_presentations": {"x": "t*a*T*b^-1"}}, "hnn_presentations.x"),
])
def test_cli_spec_inner_value_of_the_wrong_type_is_a_usage_error(capsys, tmp_path, inner, key):
    # a wrong type inside a bundle's object is named, not a traceback, and a
    # string of relators is not read one relator per character
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(BS13_BUNDLE | inner))
    code, out, err = run_cli(capsys, "run", "hnn-relators", "--spec", str(spec))
    assert code == 3 and out == ""
    assert err.startswith("arboreal: ") and repr(key) in err and "Traceback" not in err


def test_two_transitivity_default_level_keeps_the_top_level_small(monkeypatch):
    # the deepest level <= 6 with at most 5^5 vertices; the level checks are
    # stubbed, so gs5 and gs7 cost nothing here
    monkeypatch.setattr(checks, "two_transitivity_level_check", lambda gens, l: True)
    expected = {gid: 6 for gid in catalog.catalog()} | {"gs5": 5, "gs7": 4}
    for gid, top in expected.items():
        report = run_check("two-transitivity", {"group": gid})
        assert list(report.evidence["levels"]) == list(range(1, top + 1)), gid
    report = run_check("two-transitivity", {"group": "gs7", "level": 6})
    assert list(report.evidence["levels"]) == list(range(1, 7))
    assert {d: checks.two_transitivity_level(d) for d in (2, 3, 5, 7, 3126)} == {
        2: 6, 3: 6, 5: 5, 7: 4, 3126: 1}


def test_cli_spec_without_affine_key_keeps_the_closure_search(capsys, tmp_path):
    spec = tmp_path / "bs13.json"
    spec.write_text(json.dumps(BS13_BUNDLE))
    entry = catalog.load_spec(str(spec))
    assert entry.automaton.affine is None
    assert entry.element("c*(a*b^-1*a)^-1").is_trivial()
    assert entry.automaton._trivial
    code, out, _ = run_cli(capsys, "run", "lifting", "--spec", str(spec))
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["two-transitivity", "--group", "grigorchuk", "--level", "0"],
    ["spine", "--group", "grigorchuk", "--depth", "-3"],
    ["transitivity", "--group", "grigorchuk", "--copies", "-1"],
    ["transitivity", "--group", "grigorchuk", "--length", "-1"],
    ["lamplighter-core", "--n-min", "5", "--n-max", "3"],
    ["lamplighter-core", "--n-min", "-1", "--n-max", "0"],
    ["lamplighter-alpha", "--bound", "-1"],
    ["lamplighter-alpha", "--bound", "-2"],
    ["lifting", "--group", "basilica", "--depth", "-1"],
    ["hnn-relators", "--group", "grigorchuk", "--depth", "-1"],
    ["stabilizer-projection", "--group", "basilica", "--depth", "-1"],
    ["witnesses", "--group", "grigorchuk", "--bound", "-1"],
])
def test_run_empty_or_negative_range_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "run", *argv)
    assert code == 3
    assert out == "" and err.startswith("arboreal: ") and "must be >=" in err


@pytest.mark.parametrize("argv,message", [
    (["run", "perm-order", "--group", "grigorchuk"], "--level"),
    (["run", "ggs", "--p", "5"], "--e"),
    (["run", "ggs", "--e", "1,-1"], "--p"),
    (["run", "perm-order", "--group", "grigorchuk", "--level", "3", "--gens", "a,x"],
     "unknown generator 'x'; known: a, b, c, d"),
    (["perm-group-on-level", "--group", "grigorchuk", "--level", "3", "--gens", "a,x"],
     "unknown generator 'x'; known: a, b, c, d"),
    (["portrait", "--group", "gs3", "--element", "a", "--theta"], "gs3 has no lifting"),
    (["run", "spine", "--group", "gs3"], "gs3 has no lifting"),
    (["run", "spine", "--group", "basilica", "--element", "t"],
     "spine does not take --element"),
    (["run", "properties", "--depth", "5"], "properties does not take --depth"),
    (["run", "transitivity", "--group", "basilica", "--n-max", "4"],
     "transitivity does not take --n-max"),
    (["run", "dilation", "--group", "basilica", "--element", "t*x"], "unknown generator 'x'"),
    (["run", "perm-order", "--group", "grigorchuk", "--level", "3", "--expect", "x"],
     "--expect: 'x' is not an integer"),
    (["run", "dilation", "--group", "basilica", "--expect", "x"],
     "--expect: 'x' is not an integer"),
    (["run", "ggs", "--p", "3", "--e", "x"], "--e: 'x' is not an integer"),
    (["run", "ggs", "--p", "3", "--e", "1,-1,y"], "--e: 'y' is not an integer"),
    (["run", "lamplighter-core", "--depth", "5"], "lamplighter-core does not take --depth"),
    (["run", "two-transitivity", "--group", "grigorchuk", "--level", "x"],
     "--level: 'x' is not an integer"),
    (["run", "stabilizer-of-first-level", "--group", "grigorchuk", "--vertex", "abc"],
     "cannot parse vertex 'abc'"),
    (["perm-group-on-level", "--group", "grigorchuk", "--level", "2", "--orbit", "x1"],
     "cannot parse vertex 'x1'"),
    (["run", "hnn-relators", "--group", "grigorchuk", "--presentation", "nope"],
     "grigorchuk has no relator suite 'nope'; known: all, base, full, short"),
    (["run", "hnn-relators", "--group", "g01inf", "--presentation", "base"],
     "g01inf has no relator suite 'base'; known: all"),
    (["run", "witnesses", "--group", "grigorchuk", "--letter", "5"],
     "letter must be in 0..1, got 5"),
    (["run", "witnesses", "--group", "gs3", "--letter", "-1"],
     "letter must be in 0..2, got -1"),
    (["portrait", "--group", "grigorchuk", "--element", "x"], "unknown generator 'x'"),
    (["run", "dilation", "--group", "basilica", "--element", "t^"], "unexpected end of input"),
    (["run", "dilation", "--group", "basilica", "--element", "(a"],
     "expected ')', found end of input"),
    (["run", "dilation", "--group", "basilica", "--element", "a*"], "unexpected end of input"),
    (["run", "dilation", "--group", "basilica", "--element", "*a"], "unexpected token '*'"),
    (["run", "dilation", "--group", "basilica", "--element", "a**b"], "unexpected token '*'"),
])
def test_usage_errors_name_what_is_wrong(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and err.startswith(f"arboreal: {message}")


@pytest.mark.parametrize("argv", [["--samples", "3"], ["--seed", "5"]])
def test_dilation_sampler_flags_are_gone(capsys, argv):
    # dilation decides its exponent exactly and no longer samples
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "dilation", "--group", "basilica", *argv])
    err = capsys.readouterr().err
    assert excinfo.value.code == 3 and f"unrecognized arguments: {' '.join(argv)}" in err


def test_hnn_relators_without_suites_is_inconclusive(capsys):
    code, out, err = run_cli(capsys, "run", "hnn-relators", "--group", "g01inf")
    assert code == 2 and err == ""
    assert "reason: no relator suites configured" in out


def test_run_flags_are_the_declared_params():
    # every check flag of `run` comes from a declaration, and a param name
    # means one kind of value in every check that declares it
    run = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)).choices["run"]
    options = {o for action in run._actions for o in action.option_strings} - {"-h", "--help"}
    kinds = {}
    for _, declared in checks.CHECKS.values():
        for param in declared:
            assert kinds.setdefault(param.name, param.kind) == param.kind, param.name
    assert options == {"--format"} | {checks.flag(name) for name in kinds}
    assert len(kinds) == 19 and checks.flag("n_min") == "--n-min"


@pytest.mark.parametrize("params,message", [
    ({"string_bound": 0}, "grig-recursions does not take --string-bound"),
    ({"group_bound": 0, "alpha_bound": 0}, "grig-recursions does not take --group-bound"),
])
def test_grig_recursions_bounds_are_fixed(params, message):
    with pytest.raises(ValueError, match=message):
        run_check("grig-recursions", params)
    assert run_check("grig-recursions", {}).evidence == {
        "P_n_as_string": "12/12", "P_n_in_group": "6/6", "alpha_n": "12/12"}


@pytest.mark.parametrize("check,params,argv", [
    ("two-transitivity", {"group": "grigorchuk", "level": "x"}, ["--level", "x"]),
    ("ggs", {"p": 3, "e": "1,y"}, ["--p", "3", "--e", "1,y"]),
    ("witnesses", {"group": "grigorchuk", "bound": -1}, ["--bound", "-1"]),
    ("ggs", {"e": "1,-1"}, ["--e", "1,-1"]),
    ("witnesses", {"group": "grigorchuk", "letter": 5}, ["--letter", "5"]),
    ("witnesses", {"group": "gs3", "letter": -1}, ["--letter", "-1"]),
])
def test_python_api_and_command_line_give_the_same_usage_error(capsys, check, params, argv):
    with pytest.raises(ValueError) as excinfo:
        run_check(check, params)
    group = ["--group", params["group"]] if "group" in params else []
    code, out, err = run_cli(capsys, "run", check, *group, *argv)
    assert code == 3 and out == "" and err == f"arboreal: {excinfo.value}\n"


def test_dilation_at_a_deep_copy(capsys):
    # the exponent is read off the element exactly, however deep its copies
    code, out, err = run_cli(capsys, "run", "dilation", "--group", "grigorchuk",
                             "--element", "T^600*a*t^600", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["evidence"] == {"element": "T^600*a*t^600", "exponent": 0}


def test_run_properties_matches_acceptance_criterion_9(capsys):
    code, out, _ = run_cli(capsys, "run", "properties", "--format", "json")
    assert code == 0
    check = json.loads(out)
    code, out, _ = run_cli(capsys, "acceptance", "--criterion", "9", "--format", "json")
    assert code == 0
    criterion = json.loads(out)
    assert check["check"] == "properties" and check["status"] == "pass"
    assert criterion["evidence"] == {"properties": check["evidence"]}


def test_escalation_stops_at_the_binary_box_size():
    # the triviality-agreement escalation runs to the deepest box (b, b) no
    # larger than the binary box (16, 16): 17 * 7^16 vertices would hang gs7
    assert {d: _escalation_stop(d) for d in (2, 3, 5, 7)} == {2: 16, 3: 10, 5: 7, 7: 6}

    def size(d, b):   # the count _escalation_stop uses, against the enumeration
        return (d ** (b + 1) - 1) // (d - 1) + b * d ** b

    for gid in ("grigorchuk", "gs5", "gs7"):
        action = catalog.get(gid).action()
        d = action.automaton.size
        for b in range(4):
            assert sum(1 for _ in canonical_vertices(action, b, b)) == size(d, b)
    for d in (2, 3, 5, 7):
        stop = _escalation_stop(d)
        assert size(d, stop) <= size(2, 16) < size(d, stop + 1)
