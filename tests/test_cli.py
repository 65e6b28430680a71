"""Command line behaviour: transcripts, exit codes, JSON mode."""

import gc
import itertools
import json
import os
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import pytest

import sosforge
from sosforge import load_corpus, parse_label, parse_spec, parse_term
from sosforge.cli import main
from sosforge.terms import render_term


def corpus_path(name: str) -> str:
    return str(resources.files("sosforge") / "corpus" / f"{name}.sos")


PAR = corpus_path("bccsp_par")
LINDA = corpus_path("linda")
REC = corpus_path("recursion")
G = corpus_path("g")
FULL = corpus_path("full")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- transcripts -----------------------------------------------------------------


def test_simulate_transcript(capsys):
    code, out, _ = run(capsys, "simulate", PAR, "| . 0 || a . 0")
    assert code == 0
    assert out == "Possible steps:\n < a # | . 0 || 0 >\n"


def test_simulate_three_steps(capsys):
    code, out, _ = run(capsys, "simulate", PAR, "| . 0 + b . 0 || c . 0 + | . 0")
    assert code == 0
    assert out == (
        "Possible steps:\n"
        " < b # 0 || c . 0 + | . 0 >\n"
        " < c # | . 0 + b . 0 || 0 >\n"
        " < | # 0 >\n"
    )


def test_bisim_true_transcript(capsys):
    code, out, _ = run(capsys, "bisim", PAR, "a . 0 || b . 0", "a . b . 0 + b . a . 0")
    assert code == 0
    assert out == (
        "true\n"
        " < 0 || 0 ; 0 >\n"
        " < 0 || b . 0 ; b . 0 >\n"
        " < a . 0 || 0 ; a . 0 >\n"
        " < a . 0 || b . 0 ; a . b . 0 + b . a . 0 >\n"
    )


def test_bisim_witness_is_one_write(monkeypatch):
    """The witness block reaches stdout in one write, the same bytes as one
    line per pair."""
    writes = []

    class Out:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["bisim", PAR, "a . 0 || b . 0", "a . b . 0 + b . a . 0"]) == 0
    assert writes == [
        "true\n"
        " < 0 || 0 ; 0 >\n"
        " < 0 || b . 0 ; b . 0 >\n"
        " < a . 0 || 0 ; a . 0 >\n"
        " < a . 0 || b . 0 ; a . b . 0 + b . a . 0 >\n"
    ]


@pytest.mark.parametrize("flag, golden", [((), "bisim_par3.txt"), (("--json",), "bisim_par3_json.json")])
def test_bisim_symmetric_golden(capsys, flag, golden):
    """Three equal components, flat against right-nested: the transcript
    the console-script check diffs as well."""
    c = "a . b . | . 0"
    code, out, _ = run(capsys, "bisim", PAR, f"{c} || {c} || {c}", f"{c} || ({c} || {c})", *flag)
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")


def test_bisim_false(capsys):
    code, out, _ = run(capsys, "bisim", PAR, "a . 0", "b . 0")
    assert code == 1
    assert out == "false\n"


def test_eq_transcript(capsys):
    code, out, _ = run(capsys, "eq", REC, "p1", "q1")
    assert code == 0
    assert out == "< true ; < p1 ; q1 > < p1 ; q4 > < p2 ; q2 > < p3 ; q3 > >\n"


def test_eq_false(capsys):
    code, out, _ = run(capsys, "eq", REC, "p1", "q2")
    assert code == 1
    assert out == "< false >\n"


def test_normalize_transcript(capsys):
    code, out, _ = run(capsys, "normalize", LINDA, "ask(u) ; tell(v)")
    assert code == 0
    assert out == "< {d, u},-,{d, u} > . < {d},-,{d, v} > . | . 0\n"


def test_validate_clean(capsys):
    code, out, _ = run(capsys, "validate", FULL)
    assert code == 0
    assert out == "no violations\n"


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.sos"
    bad.write_text(
        "spec BAD\nactions a ;\nop f : 2 ;\nvar x x' : Proc ;\n"
        "rule x -(a)-> x' ==> f(x, x) -(a)-> x' ;\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "rule 1: RepeatedVariable" in out


def test_comm_transcript(capsys):
    code, out, _ = run(capsys, "comm", G)
    assert code == 0
    assert "g is commutative" in out
    assert "k <- l  l <- k" in out


def test_comm_failures_exit_code(capsys):
    code, out, _ = run(capsys, "comm", LINDA)
    assert code == 1
    assert "Could not prove commutativity for: _;_" in out


def test_axioms_text(capsys):
    code, out, _ = run(capsys, "axioms", PAR)
    assert code == 0
    assert out.startswith("axioms for _||_\n")


# -- exit codes for trouble ---------------------------------------------------------


def test_unbound_variable_is_usage_error(capsys):
    code, out, err = run(capsys, "simulate", PAR, "x")
    assert code == 2
    assert out == "" and "error:" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "simulate", "no_such.sos", "0")
    assert code == 2 and "error:" in err


def _assert_clean_refusal(code, out, err, path):
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_validate_directory(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path))
    _assert_clean_refusal(code, out, err, tmp_path)


def test_spec_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.sos"
    bad.write_bytes("spec L\nactions \xe9 ;\n".encode("latin-1"))
    code, out, err = run(capsys, "validate", str(bad))
    _assert_clean_refusal(code, out, err, bad)


def test_emit_formats_into_directory(tmp_path, capsys):
    code, out, err = run(capsys, "comm", G, "--emit-formats", str(tmp_path))
    _assert_clean_refusal(code, out, err, tmp_path)


def test_parse_error_in_spec(tmp_path, capsys):
    bad = tmp_path / "syntax.sos"
    bad.write_text("spec X\nactions ;\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "error:" in err


def test_state_cap_exit(capsys):
    code, _, err = run(
        capsys, "bisim", PAR, "--state-cap", "2", "a . b . c . 0", "a . b . c . 0"
    )
    assert code == 3 and "error:" in err


def test_state_cap_bounds_explored_states(capsys):
    """A false pair is answered once a layer separates it, before the cap."""
    p7 = " || ".join(["a . b . | . 0"] * 7)
    q7 = " || ".join(["a . b . | . 0"] * 6 + ["a . c . | . 0"])
    assert run(capsys, "bisim", PAR, "--state-cap", "200", p7, q7) == (1, "false\n", "")
    code, out, err = run(capsys, "bisim", PAR, "--state-cap", "200", p7, p7)
    assert (code, out) == (3, "")
    assert err == "error: state cap exceeded (200 states)\n"


def test_budget_exit(capsys):
    code, _, err = run(capsys, "normalize", PAR, "--budget", "1", "a . 0 || b . 0")
    assert code == 3 and "error:" in err


def test_unguarded_definition_exit(tmp_path, capsys):
    bad = tmp_path / "ug.sos"
    bad.write_text("spec U\nactions a ;\ndef p = p + a . 0 ;\n", encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(bad), "p")
    assert code == 2 and out == ""
    assert err == (
        "error: invalid specification\n"
        "def p: UnguardedDef: p occurs outside the scope of a prefix\n"
    )


def test_state_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("SOSFORGE_STATE_CAP", "2")
    code, _, err = run(capsys, "bisim", PAR, "a . b . c . 0", "a . b . c . 0")
    assert code == 3 and "error:" in err


def test_missing_subcommand_usage(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("argv, value", [
    (("normalize", PAR, "--budget", "0", "a . 0"), "'0'"),
    (("normalize", PAR, "--budget", "-3", "a . 0"), "'-3'"),
    (("bisim", PAR, "--state-cap", "0", "a . 0", "a . 0"), "'0'"),
])
def test_non_positive_caps_are_usage_errors(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert any("error:" in line and value in line for line in err.splitlines())


@pytest.mark.parametrize("raw", ["-5", "abc"])
def test_bad_state_cap_env_is_usage_error(monkeypatch, capsys, raw):
    monkeypatch.setenv("SOSFORGE_STATE_CAP", raw)
    code, out, err = run(capsys, "bisim", PAR, "a . 0", "a . 0")
    assert code == 2 and out == ""
    assert err == f"error: SOSFORGE_STATE_CAP must be a positive integer, got '{raw}'\n"


def test_smallest_budget_and_cap_are_honoured(monkeypatch, capsys):
    assert run(capsys, "normalize", PAR, "--budget", "1", "a . 0")[0] == 0
    assert run(capsys, "bisim", PAR, "--state-cap", "1", "0", "0")[0] == 0
    monkeypatch.setenv("SOSFORGE_STATE_CAP", "1")
    code, _, err = run(capsys, "bisim", PAR, "a . 0", "a . 0")
    assert code == 3 and "state cap exceeded (1 states)" in err


DEEP = " . ".join(["a"] * 3000) + " . 0"
WIDE = " || ".join(["a . 0"] * 1200)


@pytest.mark.parametrize("command", ["simulate", "normalize"])
@pytest.mark.parametrize("term", [DEEP, WIDE], ids=["deep", "wide"])
def test_too_deep_term_is_budget_error(capsys, command, term):
    code, out, err = run(capsys, command, PAR, term)
    assert code == 3 and out == ""
    assert err == "error: input nested too deeply for the recursion limit\n"


# The longest prefix chain simulate handled here at the default recursion limit
# was 949 (one frame per level); normalize stops at its depth limit of 500.  A
# second frame per level would halve both.
NEAR_LIMIT = {"simulate": 940, "normalize": 500}


@pytest.mark.parametrize("command", ["simulate", "normalize"])
def test_long_prefix_chain_within_recursion_limit(capsys, command):
    n = NEAR_LIMIT[command]
    term = " . ".join(["a"] * n) + " . 0"
    code, out, err = run(capsys, command, PAR, term)
    assert code == 0 and err == ""
    if command == "simulate":
        assert out == f"Possible steps:\n < a # {term[4:]} >\n"
    else:
        assert out == term + "\n"


def test_long_linda_chain_normalizes_in_a_fresh_interpreter():
    """A 480-long `tell(d) ; …` chain normalizes at the default recursion
    limit: each rewrite of the chain, and of each conclusion target built
    from it, takes one frame.  It runs in a fresh interpreter, since what
    ran before in the same process can change the depth a command reaches."""
    n = 480
    chain = " ; ".join(["tell(d)"] * n)
    src = str(Path(sosforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "sosforge.cli", "normalize", LINDA, chain],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("< {d},-,{d, d} > . ") == n and proc.stdout.endswith(" . | . 0\n")


BCCSP = corpus_path("bccsp")
THREE = "a . 0 + b . 0 + c . 0"
FLAT = " + ".join(["a . 0", "b . 0", "c . 0"][i % 3] for i in range(3000))


@pytest.mark.parametrize("argv", [("simulate",), ("normalize",), ("bisim", THREE)],
                         ids=["simulate", "normalize", "bisim"])
def test_flat_choice_of_any_width_runs(capsys, argv):
    """A flat choice costs no stack per summand: 3,000 summands print what
    the three distinct ones print."""
    command, *rest = argv
    want = run(capsys, command, BCCSP, THREE, *rest)
    assert want[0] == 0 and want[2] == ""
    assert run(capsys, command, BCCSP, FLAT, *rest) == want


def test_wide_definition_body_validates_and_runs(tmp_path, capsys):
    body = " + ".join(["a . p"] * 1500)
    spec = tmp_path / "wide.sos"
    spec.write_text(f"spec WIDE\nactions a ;\ndef p = {body} ;\ndef q = a . q ;\n",
                    encoding="utf-8")
    assert run(capsys, "validate", str(spec)) == (0, "no violations\n", "")
    assert run(capsys, "eq", str(spec), "p", "q") == (0, "< true ; < p ; q > >\n", "")


def test_wide_canonical_choice_normalizes_and_is_bisimilar_to_itself(capsys):
    """A canonical choice of 3,000 distinct summands renders, normalizes to
    itself and is explored, though its string is built down one spine."""
    chains = [" . ".join(p) + " . 0" for p in itertools.product("abc", repeat=8)][:3000]
    term = " + ".join(chains)  # in canonical order already
    assert run(capsys, "normalize", BCCSP, term) == (0, term + "\n", "")
    code, out, err = run(capsys, "bisim", BCCSP, term, term)
    assert (code, err) == (0, "")
    assert out.startswith("true\n") and f" < {term} ; {term} >\n" in out


def test_wide_choice_in_a_rule_target_runs(tmp_path, capsys):
    """A rule target that is a choice of 1,500 summands is substituted down
    its spine, in the shape and order it was written in."""
    written = " + ".join(f"{'ab'[i % 2]} . x2" for i in range(1500))
    spec = tmp_path / "w.sos"
    spec.write_text("spec W\nactions a b ;\nop f : 1 ;\nvar x x2 : Proc ;\n"
                    f"rule x -(a)-> x2 ==> f(x) -(a)-> {written} ;\n", encoding="utf-8")
    target = written.replace("x2", "0")
    assert run(capsys, "simulate", str(spec), "f(a . 0)") == (
        0, f"Possible steps:\n < a # {target} >\n", "")


SELF = "spec S\nactions a ;\nop f : 0 ;\nop g : 0 ;\nop h : 1 ;\nvar x x2 : Proc ;\n" \
    "rule ==> f() -(a)-> f() ;\nrule ==> g() -(a)-> a . g() ;\n" \
    "rule x -(a)-> x2 ==> h(x) -(a)-> h(x) ;\n"


@pytest.mark.parametrize("term, named", [("f()", "f()"), ("a . f()", "f()"), ("g()", "g()"),
                                         ("h(a . 0)", "h(a . 0)")])
def test_normalize_self_reproducing_rule_is_budget_error(tmp_path, capsys, term, named):
    """A rewrite that needs its own normal form stops at once, naming its term."""
    spec = tmp_path / "self.sos"
    spec.write_text(SELF, encoding="utf-8")
    code, out, err = run(capsys, "normalize", str(spec), term)
    assert (code, out) == (3, "")
    assert err == (f"error: normalization of {named} needs its own normal form; "
                   "term not semantically well-founded within budget\n")


def test_op_takes_only_comm(tmp_path, capsys):
    spec = tmp_path / "attrs.sos"
    spec.write_text("spec A\nactions a ;\nop f : 1 [assoc id: zz] ;\n", encoding="utf-8")
    code, out, err = run(capsys, "comm", str(spec), "--emit-formats", str(tmp_path / "f.sos"))
    assert (code, out) == (2, "")
    assert err == "error: 3:11: op does not take attribute 'assoc'\n"
    assert not (tmp_path / "f.sos").exists()


DECLARED = """spec C
actions a e ;
labelop cat : Label Label -> Label [assoc id: e] ;
op f : 2 [comm] ;
op _||_ : 2 ;
var x y x2 : Proc ;
rule x -(a)-> x2 ==> f(x, y) -(cat(a, e))-> x2 ;
"""


def test_comm_declared_operator_and_emitted_label_attributes(tmp_path, capsys):
    spec = tmp_path / "declared.sos"
    spec.write_text(DECLARED, encoding="utf-8")
    formats = tmp_path / "formats.sos"
    code, out, err = run(capsys, "comm", str(spec), "--emit-formats", str(formats))
    assert (code, out, err) == (0, "f is commutative (declared)\n\n_||_ is commutative\n", "")
    emitted = formats.read_text(encoding="utf-8")
    assert "labelop cat : Label Label -> Label [assoc id: e] ;\n" in emitted
    assert "op f : 2 [comm] ;\n" in emitted


def test_axioms_of_an_infix_operator_without_rules(tmp_path, capsys):
    spec = tmp_path / "declared.sos"
    spec.write_text(DECLARED, encoding="utf-8")
    code, out, err = run(capsys, "axioms", str(spec))
    assert (code, err) == (0, "")
    assert out.endswith("\n\naxioms for _||_\n  x1 || x2 = 0\n")


# -- machine-readable mode -------------------------------------------------------------


def test_simulate_json_roundtrip(capsys):
    spec = parse_spec(open(LINDA, encoding="utf-8").read())
    code, out, _ = run(capsys, "simulate", LINDA, "--json", "ask(u) ; tell(v)")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and data
    for entry in data:
        parse_label(entry["label"], spec)
        t = parse_term(entry["target"], spec)
        assert render_term(t) == entry["target"]


def test_bisim_json(capsys):
    spec = parse_spec(open(PAR, encoding="utf-8").read())
    code, out, _ = run(
        capsys, "bisim", PAR, "--json", "a . 0 || b . 0", "a . b . 0 + b . a . 0"
    )
    assert code == 0
    data = json.loads(out)
    assert data["bisimilar"] is True
    assert len(data["witness"]) == 4
    for p, q in data["witness"]:
        parse_term(p, spec)
        parse_term(q, spec)


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", FULL, "--json")
    assert code == 0
    assert json.loads(out) == []


def test_comm_json(capsys):
    code, out, _ = run(capsys, "comm", LINDA, "--json")
    assert code == 1
    data = json.loads(out)
    assert data["failed"] == {"_;_": [4, 5, 6]}


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", PAR, "--json", "a . 0 || b . 0")
    assert code == 0
    assert json.loads(out) == {"term": "a . b . 0 + b . a . 0"}


def test_axioms_json(capsys):
    code, out, _ = run(capsys, "axioms", PAR, "--json")
    assert code == 0
    assert json.loads(out)[0]["op"] == "_||_"


# -- derived spec artifact ---------------------------------------------------------------


def test_emit_formats(tmp_path, capsys):
    target = tmp_path / "derived.sos"
    code, out, _ = run(capsys, "comm", PAR, "--emit-formats", str(target))
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert "[comm]" in text
    derived = parse_spec(text)
    assert derived.proc_ops["_||_"].comm


# -- package surface ---------------------------------------------------------------------


def test_all_exports_resolve():
    namespace = {}
    exec("from sosforge import *", namespace)
    assert set(sosforge.__all__) <= namespace.keys()
    for name in sosforge.__all__:
        assert hasattr(sosforge, name), name
    assert set(sosforge.__all__) <= set(dir(sosforge))
    with pytest.raises(AttributeError, match=r"^module 'sosforge' has no attribute 'no_such'$"):
        sosforge.no_such


# -- installed entry point ----------------------------------------------------------------


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sosforge.cli", "simulate", PAR, "| . 0 || a . 0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "Possible steps:\n < a # | . 0 || 0 >\n"


# -- multisets in premise labels -------------------------------------------------

ACU_SPEC = """spec ACU
predicates | ;
datasort Data [assoc comm id: empty] ;
dataconst d u v : Data ;
op ask : 1 ;  op f : 1 ;  op h : 1 ;  op g : 2 ;  op m : 2 ;
var x y x' y' : Proc ;  var mu xD xD' : Data ;
rule ==> ask(mu) -( < {d, mu}, -, {d, mu} > )-> | . 0 ;
rule x -(< {d, xD}, -, xD' >)-> x' ==> f(x) -(< xD, -, xD' >)-> x' ;
rule x -(< {xD}, -, xD' >)-> x' ==> h(x) -(< xD, -, xD' >)-> x' ;
rule x -(< {d, xD}, -, xD' >)-> x' , y -(< xD, -, xD' >)-> y' ==> g(x, y) -(|)-> 0 ;
rule x -(< mu, -, mu >)-> x' ==> m(mu, x) -(< mu, -, mu >)-> m(mu, x') ;
"""


# term, the label and target of its one step, and the normal form of that target
ACU_ROWS = [
    ("f(ask(empty))", "< {},-,{d} >", "| . 0", "| . 0"),
    ("f(ask(u))", "< {u},-,{d, u} >", "| . 0", "| . 0"),
    ("f(ask({u, v}))", "< {u, v},-,{d, u, v} >", "| . 0", "| . 0"),
    ("h(ask(u))", "< {d, u},-,{d, u} >", "| . 0", "| . 0"),
    # xD takes the one-element share u, then reads as {u} in the second premise
    ("g(ask(u), < {u}, -, {d, u} > . 0)", "|", "0", "0"),
    # mu holds the lone constant u of a source slot, {u} in a store slot
    ("m(u, < u, -, u > . 0)", "< {u},-,{u} >", "m(u,0)", "0"),
]


@pytest.mark.parametrize("term, label, target, nf_target", ACU_ROWS,
                         ids=[f"{term}-{label}" for term, label, _, _ in ACU_ROWS])
def test_premise_multiset_variable_takes_any_share(tmp_path, capsys, term, label, target, nf_target):
    spec = tmp_path / "acu.sos"
    spec.write_text(ACU_SPEC, encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(spec), term)
    assert (code, err) == (0, "")
    assert out == f"Possible steps:\n < {label} # {target} >\n"
    code, out, err = run(capsys, "normalize", str(spec), term)
    assert (code, out, err) == (0, f"{label} . {nf_target}\n", "")


def test_bisim_sees_empty_share(tmp_path, capsys):
    spec = tmp_path / "acu.sos"
    spec.write_text(ACU_SPEC, encoding="utf-8")
    code, out, _ = run(capsys, "bisim", str(spec), "f(ask(empty))", "0")
    assert (code, out) == (1, "false\n")


# Two data sorts whose empty multisets both print `{}`.
SORTS_DECLS = (
    "predicates | ; datasort A [assoc comm id: ea] ; datasort B [assoc comm id: eb] ; "
    "dataconst a1 : A ; dataconst b1 : B ; op g : 1 ; "
)
TWO_SPEC = (
    f"spec TWO {SORTS_DECLS}var x x2 : Proc ; "
    "rule x -(< a1, -, ea >)-> x2 ==> g(x) -(< a1, -, a1 >)-> x2 ;\n"
)
NEG_SPEC = (
    f"spec NEG {SORTS_DECLS}actions a ; op h : 1 ; var x x2 : Proc ; "
    "rule x -(a)-> x2 , x -(< a1, -, ea >)/> ==> h(x) -(a)-> x2 ;\n"
)


@pytest.mark.parametrize("text, term, steps, nf", [
    (TWO_SPEC, "g(< a1, -, eb > . 0)", "", "0"),
    (TWO_SPEC, "g(< a1, -, ea > . 0)", " < < {a1},-,{a1} > # 0 >\n", "< {a1},-,{a1} > . 0"),
    (NEG_SPEC, "h(a . 0 + < a1, -, eb > . 0)", " < a # 0 >\n", "a . 0"),
    (NEG_SPEC, "h(a . 0 + < a1, -, ea > . 0)", "", "0"),
], ids=["two-other-sort", "two-same-sort", "neg-other-sort", "neg-same-sort"])
def test_ground_premise_label_keeps_its_sort(tmp_path, capsys, text, term, steps, nf):
    """A ground premise label, positive or negative, meets only an offered
    label of its own sort, though `{}` prints the same in every data sort."""
    spec = tmp_path / "sorts.sos"
    spec.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(spec), term)
    assert (code, out, err) == (0, "Possible steps:\n" + steps, "")
    code, out, err = run(capsys, "normalize", str(spec), term)
    assert (code, out, err) == (0, nf + "\n", "")


def test_bisim_tells_empty_stores_of_two_sorts_apart(tmp_path, capsys):
    """States whose labels print alike but differ in a data sort are two
    states, and their labels two labels."""
    spec = tmp_path / "two.sos"
    spec.write_text(TWO_SPEC, encoding="utf-8")
    p, q = "< a1, -, ea > . 0", "< a1, -, eb > . 0"
    assert run(capsys, "bisim", str(spec), p, q) == (1, "false\n", "")
    assert run(capsys, "bisim", str(spec), p, p)[:2] == (
        0, "true\n < 0 ; 0 >\n < < {a1},-,{} > . 0 ; < {a1},-,{} > . 0 >\n")
    assert run(capsys, "bisim", str(spec), f"{p} + {q}", f"{q} + {p}")[0] == 0
    assert run(capsys, "bisim", str(spec), f"{p} + {q}", p) == (1, "false\n", "")


PR_SPEC = (
    f"spec PR {SORTS_DECLS}labelop pr : Label Label -> Label ; var x x2 : Proc ; var k : Label ; "
    "rule x -(pr(k, k))-> x2 ==> g(x) -(k)-> x2 ;\n"
)


def test_repeated_label_variable_keeps_its_sort(tmp_path, capsys):
    """`pr(k, k)` meets only a pair of one label, and two store triples
    that print alike but differ in a data sort are two labels."""
    spec = tmp_path / "pr.sos"
    spec.write_text(PR_SPEC, encoding="utf-8")
    t = "g(pr(< a1, -, ea >, < a1, -, eb >) . 0)"
    assert run(capsys, "simulate", str(spec), t) == (0, "Possible steps:\n", "")
    assert run(capsys, "normalize", str(spec), t) == (0, "0\n", "")
    code, out, err = run(capsys, "bisim", str(spec), t, "0")
    assert (code, out.splitlines()[0], err) == (0, "true", "")
    same = "g(pr(< a1, -, ea >, < a1, -, ea >) . 0)"
    assert run(capsys, "simulate", str(spec), same) == (
        0, "Possible steps:\n < < {a1},-,{} > # 0 >\n", "")


SLOT_SPEC = """spec SLOT
actions a ;
datasort Data [assoc comm id: empty] ;
dataconst d u : Data ;
op f : 1 ;
var x x2 : Proc ;
var xD : Data ;
rule x -(< xD, -, {xD, u} >)-> x2 ==> f(x) -(a)-> x2 ;
"""


def test_lone_constant_meets_its_slot_form(tmp_path, capsys):
    """`xD` bound to a slot holding the lone constant `d`, which the slot
    keeps as `{d}`, meets the one-element share `d` of a multiset."""
    spec = tmp_path / "slot.sos"
    spec.write_text(SLOT_SPEC, encoding="utf-8")
    fires = (0, "Possible steps:\n < a # 0 >\n", "")
    assert run(capsys, "simulate", str(spec), "f(< d, -, {d, u} > . 0)") == fires
    assert run(capsys, "simulate", str(spec), "f(< {d, u}, -, {d, u, u} > . 0)") == fires
    assert run(capsys, "simulate", str(spec), "f(< u, -, {d, u} > . 0)") == (0, "Possible steps:\n", "")
    assert run(capsys, "normalize", str(spec), "f(< d, -, {d, u} > . 0)") == (0, "a . 0\n", "")


# -- label operators declared assoc and id: ---------------------------------------

LID_SPEC = """spec LID
actions a b c e ;
labelop cat : Label Label -> Label [assoc id: e] ;
labelop mix : Label Label -> Label [comm id: e] ;
op f : 1 ;  op g : 1 ;  op h : 1 ;
var x x' : Proc ;  var k l : Label ;
rule x -(k)-> x' ==> f(x) -(cat(k, a))-> x' ;
rule x -(mix(k, l))-> x' ==> g(x) -(k)-> x' ;
rule x -(cat(a, k))-> x' ==> h(x) -(k)-> x' ;
"""


@pytest.fixture
def lid(tmp_path):
    """A spec whose premise labels match modulo A, AU and CU."""
    spec = tmp_path / "lid.sos"
    spec.write_text(LID_SPEC, encoding="utf-8")
    return str(spec)


# term, and the labels of its steps, each to 0
LID_ROWS = [
    ("h(cat(a,b,c) . 0)", ["cat(b,c)"]),  # k takes the segment b, c
    ("h(cat(a, cat(b, c)) . 0)", ["cat(b,c)"]),
    ("g(mix(a, e) . 0)", ["a", "e"]),  # mix(a, e) is a, read as mix(a, e) and mix(e, a)
    ("h(a . 0)", ["e"]),  # a is cat(a, e): k takes the empty segment
]


@pytest.mark.parametrize("term, labels", LID_ROWS, ids=[term for term, _ in LID_ROWS])
def test_assoc_and_identity_labels_match(lid, capsys, term, labels):
    steps = "".join(f" < {label} # 0 >\n" for label in labels)
    assert run(capsys, "simulate", lid, term) == (0, "Possible steps:\n" + steps, "")
    code, out, err = run(capsys, "simulate", lid, term, "--json")
    assert (code, json.loads(out), err) == (
        0, [{"label": label, "target": "0"} for label in labels], "")


def test_assoc_label_step_is_seen_by_bisim_and_normalize(lid, capsys):
    t = "h(cat(a,b,c) . 0)"
    assert run(capsys, "bisim", lid, t, "0") == (1, "false\n", "")
    code, out, err = run(capsys, "bisim", lid, t, "0", "--json")
    assert (code, json.loads(out), err) == (1, {"bisimilar": False, "witness": None}, "")
    assert run(capsys, "normalize", lid, t) == (0, "cat(b,c) . 0\n", "")
    assert run(capsys, "normalize", lid, "g(mix(a, e) . 0)") == (0, "a . 0 + e . 0\n", "")


def test_intern_tables_do_not_grow_with_commands(tmp_path, capsys, monkeypatch):
    """Each command's canonical nodes die with its Spec, and library calls
    that use the default theory leave no node in its table that nobody holds."""
    from sosforge import cli
    from sosforge.commform import cc_equal
    from sosforge.terms import EMPTY_THEORY, canon_term, summands

    theories = []
    read_spec = cli._read_spec

    def recorded(path):
        spec = read_spec(path)
        theories.append(weakref.ref(spec.theory))
        return spec

    monkeypatch.setattr(cli, "_read_spec", recorded)
    two = tmp_path / "two.sos"
    two.write_text(TWO_SPEC, encoding="utf-8")
    commands = [
        ("simulate", PAR, "| . 0 + b . 0 || c . 0 + | . 0"),
        ("bisim", PAR, "a . 0 || b . 0", "a . b . 0 + b . a . 0"),
        ("normalize", LINDA, "ask(u) ; tell(d) ; get(d)"),
        ("eq", REC, "p1", "q1"),
        ("bisim", str(two), "< a1, -, ea > . 0", "< a1, -, eb > . 0"),
        ("comm", FULL),
        ("axioms", G),
        ("validate", FULL),
    ]
    for i in range(200):
        assert run(capsys, *commands[i % len(commands)])[0] in (0, 1)
    gc.collect()
    assert len(theories) == 200 and all(ref() is None for ref in theories)

    par = load_corpus("bccsp_par")
    sizes = []
    for i in range(200):
        bits = " . ".join("ab"[(i >> k) & 1] for k in range(8))
        t = parse_term(f"{bits} . 0 + c . 0 + {bits} . 0", par)
        u = parse_term(f"c . 0 + {bits} . 0", par)
        assert len(summands(t)) == 2
        assert cc_equal(canon_term(t), u, {"+"})
        del t, u
        if i % 50 == 49:
            gc.collect()
            sizes.append(len(EMPTY_THEORY._nodes))
    assert sizes[-1] <= sizes[0], sizes
