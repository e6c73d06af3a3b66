import csv
import gc
import hashlib
import inspect
import itertools
import json
import math
import os
import pathlib
import random
import re
import shlex
import shutil
import sys

import pytest

from syntaxprobe import beamsearch, cli, corpus, ngram, scoring, suites, toydata
from syntaxprobe.errors import FormatError, GenerationError, open_text

DATA = pathlib.Path(__file__).parent / "data"


def _write_config(tmp_path, **overrides):
    lines = ["[syntaxprobe]"]
    values = {
        "corpus": str(DATA / "mini.mrg"),
        "lowercase": "true",
        "seed": "5",
        "words_per_category": "1",
        "frames_per_word": "2",
        "filler_min_count": "1",
        "order": "3",
    }
    values.update(overrides)
    for key, value in values.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "probe.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _toy_config(tmp_path, **overrides):
    values = {
        "corpus": str(toydata.toy_treebank_path()),
        "lowercase": "true",
        "seed": "13",
        "words_per_category": "2",
        "frames_per_word": "20",
    }
    values.update(overrides)
    return _write_config(tmp_path, **values)


def run(args):
    return cli.main(args)


# ---------------------------------------------------------------------------
# Configuration handling


def test_config_precedence_env_then_flags(tmp_path, monkeypatch):
    cfg = cli.load_config(_write_config(tmp_path, seed="1"), {}, {})
    assert cfg.seed_value() == 1
    cfg = cli.load_config(_write_config(tmp_path, seed="1"),
                          {"SP_SEED": "2"}, {})
    assert cfg.seed_value() == 2
    cfg = cli.load_config(_write_config(tmp_path, seed="1"),
                          {"SP_SEED": "2"}, {"seed": 3})
    assert cfg.seed_value() == 3


def test_run_config_defaults_are_the_library_defaults():
    # RunConfig spells its defaults out so that importing cli loads no
    # library module; each must stay the default of the call it feeds.
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    cfg = cli.RunConfig()
    assert cfg.order == default(ngram.train, "order")
    for key, name in (("words_per_category", "words_per_category"),
                      ("frames_per_word", "frames_per_word"),
                      ("filler_min_count", "filler_min_count"),
                      ("buckets", "bucket_table")):
        assert getattr(cfg, key) == default(suites.generate_suite, name), key
    assert cfg.transitive_hi == default(corpus.classify_transitivity, "hi")
    assert cfg.intransitive_lo == default(corpus.classify_transitivity, "lo")
    assert cfg.eps_tie == scoring.DEFAULT_TIE_EPS


def test_unknown_config_key_is_usage_error(tmp_path):
    for key in ("mystery", "jobs", "punct_exempt"):
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"[syntaxprobe]\n{key} = 1\n")
        with pytest.raises(cli.UsageError):
            cli.load_config(str(path), {}, {})


def test_train_ngram_names_its_discount_fallbacks(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="D3 formula"):
        assert run(["--config", _toy_config(tmp_path, order="5"), "--out", str(out),
                    "train-ngram"]) == 0
    assert capsys.readouterr().out == (
        "train-ngram: order 5, |V|=126, discounts fell back to 0.5 at order 1 "
        "(D3 not positive), order 2 (D3 not positive), order 3 (D3 not "
        f"positive), order 4 (D3 not positive) -> {out / 'ngram.model'}\n")


def test_train_ngram_takes_no_model_out():
    with pytest.raises(SystemExit) as exc:
        run(["train-ngram", "--model-out", "m.model"])
    assert exc.value.code == 2


def test_missing_upstream_artifact(tmp_path, capsys):
    config = _write_config(tmp_path)
    rc = run(["--config", config, "--out", str(tmp_path / "out"),
              "gen", "--suite", "number_base"])
    assert rc == 2
    assert "error:usage-error" in capsys.readouterr().err


@pytest.mark.parametrize("key, stage, message", [
    ("corpus", "ingest", "no corpus configured (config key 'corpus')"),
    ("seed", "gen", "a seed is required (config key 'seed' or --seed)"),
], ids=["corpus", "seed"])
def test_blank_corpus_or_seed_is_usage_error(tmp_path, capsys, monkeypatch,
                                             key, stage, message):
    # gen reads the lexicon before the seed, so ingest runs first.
    base = ["--config", _write_config(tmp_path), "--out", str(tmp_path / "out")]
    if stage == "gen":
        assert run(base + ["ingest"]) == 0
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    monkeypatch.setenv(f"SP_{key.upper()}", "")
    args = base + [stage] + (["--suite", "number_base"] if stage == "gen" else [])
    assert run(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error:usage-error: {message}" in err
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# Golden mini pipeline


def test_ingest_matches_golden(tmp_path):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["--config", config, "--out", str(out), "ingest"]) == 0
    got = (out / "lexicon.tsv").read_bytes()
    assert got == (DATA / "golden" / "lexicon.tsv").read_bytes()


def test_gen_twice_is_byte_identical(tmp_path):
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    assert run(["--config", config, "--out", str(out), "ingest"]) == 0
    assert run(["--config", config, "--out", str(out),
                "gen", "--suite", "number_base"]) == 0
    first = (out / "suites" / "number_base.suite").read_bytes()
    assert run(["--config", config, "--out", str(out),
                "gen", "--suite", "number_base"]) == 0
    assert (out / "suites" / "number_base.suite").read_bytes() == first


def test_gen_all_writes_nothing_when_a_suite_fails(tmp_path, capsys,
                                                   monkeypatch):
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    assert run(["--config", config, "--out", str(out), "ingest"]) == 0
    assert run(["--config", config, "--out", str(out), "gen", "--suite", "all"]) == 0
    before = {p.name: p.read_bytes() for p in (out / "suites").iterdir()}
    assert len(before) == 13
    generate = suites.generate_suite
    calls = []

    def fail_on_fourth(suite_id, *args, **kwargs):
        calls.append(suite_id)
        if len(calls) == 4:
            raise GenerationError(f"{suite_id}: refused")
        return generate(suite_id, *args, **kwargs)

    monkeypatch.setattr(suites, "generate_suite", fail_on_fourth)
    capsys.readouterr()
    rc = run(["--config", config, "--out", str(out), "--seed", "14",
              "gen", "--suite", "all"])
    assert rc == 1
    assert "error:generation-error:" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (out / "suites").iterdir()} == before


def test_full_toy_pipeline_emits_all_artifacts(tmp_path, capsys):
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", config, "--out", str(out)]
    assert run(base + ["ingest"]) == 0
    assert run(base + ["stats"]) == 0
    assert run(base + ["gen", "--suite", "number_base"]) == 0
    assert run(base + ["gen", "--suite", "argstruct_passive"]) == 0
    assert run(base + ["train-ngram"]) == 0
    for suite_id in ("number_base", "argstruct_passive"):
        suite_file = str(out / "suites" / f"{suite_id}.suite")
        assert run(base + ["score", "--suite-file", suite_file,
                           "--model-name", "ngram5"]) == 0
        surp = str(out / "surprisals" / f"{suite_id}.ngram5.surp")
        assert run(base + ["eval", "--suite-file", suite_file,
                           "--surprisal-file", surp,
                           "--model-name", "ngram5"]) == 0
    items = [str(out / "eval" / f"{s}.ngram5.items.csv")
             for s in ("number_base", "argstruct_passive")]
    assert run(base + ["analyze", "--items"] + items) == 0
    evals = [str(out / "eval" / f"{s}.ngram5.eval.csv")
             for s in ("number_base", "argstruct_passive")]
    assert run(base + ["report", "--eval"] + evals +
               ["--fits", str(out / "analysis" / "fits.csv")]) == 0
    for artifact in (
        "lexicon.tsv", "wordstats/transitivity.tsv", "wordstats/active_only.txt",
        "wordstats/polar_overlap.tsv", "wordstats/vbn_fractions.tsv",
        "ngram.model", "analysis/fits.csv", "analysis/curves.csv",
        "analysis/charts.json", "report/table.csv", "report/table.txt",
    ):
        assert (out / artifact).exists(), artifact


def test_model_name_with_comma_round_trips(tmp_path):
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", config, "--out", str(out)]
    assert run(base + ["ingest"]) == 0
    assert run(base + ["gen", "--suite", "argstruct_active_inf"]) == 0
    assert run(base + ["train-ngram"]) == 0
    suite_file = str(out / "suites" / "argstruct_active_inf.suite")
    names = ("a", "kn,5")  # "a" sorts first, so it is the reference model
    for name in names:
        assert run(base + ["score", "--suite-file", suite_file,
                           "--model-name", name]) == 0
        assert run(base + ["eval", "--suite-file", suite_file, "--surprisal-file",
                           str(out / "surprisals" / f"argstruct_active_inf.{name}.surp"),
                           "--model-name", name]) == 0
    assert run(base + ["analyze", "--items"] +
               [str(out / "eval" / f"argstruct_active_inf.{n}.items.csv") for n in names]) == 0
    fits = out / "analysis" / "fits.csv"
    assert run(base + ["report", "--eval"] +
               [str(out / "eval" / f"argstruct_active_inf.{n}.eval.csv") for n in names] +
               ["--fits", str(fits)]) == 0

    assert {"a", "kn,5"} == {row["model"] for row in scoring.read_items_csv(fits)
                             if row["analysis"] == "exposure"}
    assert "model:kn,5" in {row["term"] for row in scoring.read_items_csv(fits)}
    with open(out / "report" / "table.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["suite", "a_above_chance", "kn,5_above_chance",
                      "a_vs_reference", "kn,5_vs_reference"]
    assert len(rows) == 1 and len(rows[0]) == len(header)
    assert rows[0][0] == "argstruct_active_inf" and rows[0][1] == rows[0][2]


def test_reference_model_sets_the_supervision_contrast(tmp_path):
    # "a" sorts first, so without the key it would be the reference.
    config = _toy_config(tmp_path, reference_model="b")
    out = tmp_path / "out"
    base = ["--config", config, "--out", str(out)]
    assert run(base + ["ingest"]) == 0
    assert run(base + ["gen", "--suite", "argstruct_active_inf"]) == 0
    assert run(base + ["train-ngram"]) == 0
    suite_file = str(out / "suites" / "argstruct_active_inf.suite")
    for name in ("a", "b"):
        assert run(base + ["score", "--suite-file", suite_file,
                           "--model-name", name]) == 0
        assert run(base + ["eval", "--suite-file", suite_file, "--surprisal-file",
                           str(out / "surprisals" / f"argstruct_active_inf.{name}.surp"),
                           "--model-name", name]) == 0
    assert run(base + ["analyze", "--items"] +
               [str(out / "eval" / f"argstruct_active_inf.{n}.items.csv")
                for n in ("a", "b")]) == 0
    terms = [row["term"] for row in scoring.read_items_csv(out / "analysis" / "fits.csv")
             if row["analysis"] == "supervision"]
    assert terms == ["intercept", "model:a", "bucket_log10"]


def test_train_ngram_holds_no_tree_while_it_counts(tmp_path, monkeypatch):
    # Trees that session fixtures keep alive are not this stage's; holding
    # them here keeps their ids from being reused by the stage's trees.
    before = [o for o in gc.get_objects() if isinstance(o, corpus.Tree)]
    old = {id(o) for o in before}
    held = []
    train = ngram.train

    def counting_train(*args, **kwargs):
        held.append(sum(isinstance(o, corpus.Tree) and id(o) not in old
                        for o in gc.get_objects()))
        return train(*args, **kwargs)

    monkeypatch.setattr(ngram, "train", counting_train)
    assert run(["--config", _toy_config(tmp_path), "--out", str(tmp_path / "out"),
                "train-ngram"]) == 0
    assert held == [0]


def test_eval_mismatched_inputs_fail_with_alignment_error(tmp_path, capsys):
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", config, "--out", str(out)]
    assert run(base + ["ingest"]) == 0
    assert run(base + ["gen", "--suite", "number_base"]) == 0
    assert run(base + ["gen", "--suite", "number_polar"]) == 0
    assert run(base + ["train-ngram"]) == 0
    suite_a = str(out / "suites" / "number_base.suite")
    suite_b = str(out / "suites" / "number_polar.suite")
    assert run(base + ["score", "--suite-file", suite_a,
                       "--model-name", "m"]) == 0
    rc = run(base + ["eval", "--suite-file", suite_b,
                     "--surprisal-file",
                     str(out / "surprisals" / "number_base.m.surp"),
                     "--model-name", "m"])
    assert rc == 1
    assert "error:alignment-error" in capsys.readouterr().err


def _comma_suite(tmp_path, region):
    """A hand suite whose one item has a comma, which the toy treebank never
    shows, at index 2; ``region`` is both conditions' critical region."""
    suite_file = tmp_path / f"comma{region[0]}.suite"
    rows = "".join(
        f"comma.b2.is.f00\tcomma\tis\tsingular\t2\t{cond}\tthe president , "
        f"{verb} good .\t{region[0]}\t{region[1]}\n"
        for cond, verb in (("gram", "is"), ("ungram", "are")))
    suite_file.write_text(
        "#syntax-probe-suite v1\n"
        "#suite_id\tcomma\n#kind\tcopula_agreement\n"
        "#condition_rule\tverb-form swap\n#invariance\t0\n"
        "#item_id\tsuite_id\ttarget\tcategory\tbucket\tcondition\ttokens"
        "\tregion_start\tregion_end\n" + rows)
    return str(suite_file)


def test_eval_rejects_a_critical_region_with_infinite_surprisal(tmp_path,
                                                               capsys):
    # The toy n-gram scores the comma inf.  Outside the critical region it
    # is legal; inside, eval names the suite file, item, condition and token.
    out = tmp_path / "out"
    base = ["--config", _toy_config(tmp_path), "--out", str(out)]
    assert run(base + ["train-ngram"]) == 0
    for region, rc in (((3, 4), 0), ((2, 4), 1)):
        suite_file = _comma_suite(tmp_path, region)
        assert run(base + ["score", "--suite-file", suite_file,
                           "--model-name", "m"]) == 0
        assert ", 2 tokens scored inf -> " in capsys.readouterr().out
        assert run(base + ["eval", "--suite-file", suite_file, "--surprisal-file",
                           str(out / "surprisals" / "comma.m.surp"),
                           "--model-name", "m"]) == rc
    assert capsys.readouterr().err == (
        f"error:undefined-input: {suite_file}: item comma.b2.is.f00 gram: "
        "critical region token ',' at index 2 has surprisal inf\n")


def test_external_natural_log_surprisals_evaluate_like_bits(tmp_path):
    # A neural model's surprisals arrive as an interchange file, here in
    # nats; eval reads it directly and scores it as the same values in bits.
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", config, "--out", str(out)]
    assert run(base + ["ingest"]) == 0
    assert run(base + ["gen", "--suite", "argstruct_active_past"]) == 0
    suite_file = str(out / "suites" / "argstruct_active_past.suite")

    records = []
    for item in suites.read_suite(suite_file).items:
        for cond in ("gram", "ungram"):
            tokens = item.tokens(cond)
            records.append(scoring.SurprisalRecord(
                scoring.sentence_id(item.item_id, cond), tokens,
                tuple(float(i + 1) for i in range(len(tokens)))))
    bits = tmp_path / "bits.surp"
    scoring.write_surprisal_file(records, bits)
    nats = tmp_path / "nats.surp"
    nats.write_text(f"{scoring.SURPRISAL_HEADER} base=e\n" + "".join(
        f"{r.sentence_id}\t{i}\t{tok}\t{s * math.log(2.0)!r}\n"
        for r in records for i, (tok, s) in enumerate(zip(r.tokens, r.surprisals))))
    for surp, where in ((bits, "bits"), (nats, "nats")):
        assert run(["--config", config, "--out", str(tmp_path / where), "eval",
                    "--suite-file", suite_file, "--surprisal-file", str(surp),
                    "--model-name", "ext"]) == 0
    for name in ("items", "eval"):
        rel = pathlib.Path("eval") / f"argstruct_active_past.ext.{name}.csv"
        assert (tmp_path / "nats" / rel).read_bytes() == \
            (tmp_path / "bits" / rel).read_bytes()


def _tiny_suite(tmp_path):
    """A hand suite file with one item over the language {fast, slow} go."""
    suite_file = tmp_path / "tiny.suite"
    suite_file.write_text(
        "#syntax-probe-suite v1\n"
        "#suite_id\ttiny\n#kind\tcopula_agreement\n"
        "#condition_rule\tverb-form swap\n#invariance\t0\n"
        "#provenance\tseed=0\n"
        "#item_id\tsuite_id\ttarget\tcategory\tbucket\tcondition\ttokens"
        "\tregion_start\tregion_end\n"
        "tiny.b2.fast.f00\ttiny\tfast\tsingular\t2\tgram\tfast go\t0\t1\n"
        "tiny.b2.fast.f00\ttiny\tfast\tsingular\t2\tungram\tslow go\t0\t1\n")
    return suite_file


def test_score_with_pcfg_model(tmp_path):
    # A grammar over a two-word language, plus a hand suite file for it.
    grammar = tmp_path / "g.pcfg"
    grammar.write_text("1.0 S -> A B\n0.75 A -> fast\n0.25 A -> slow\n"
                       "1.0 B -> go\n")
    suite_file = _tiny_suite(tmp_path)
    out = tmp_path / "out"
    config = _write_config(tmp_path)
    rc = run(["--config", config, "--out", str(out), "score",
              "--suite-file", str(suite_file),
              "--model", f"pcfg:{grammar}", "--model-name", "toy"])
    assert rc == 0
    records = scoring.read_surprisal_file(out / "surprisals" / "tiny.toy.surp")
    by_id = {r.sentence_id: r for r in records}
    assert by_id["tiny.b2.fast.f00:gram"].surprisals[0] == pytest.approx(
        -math.log2(0.75))
    assert by_id["tiny.b2.fast.f00:ungram"].surprisals[0] == pytest.approx(
        -math.log2(0.25))


def test_score_with_subprocess_model_matches_pcfg(tmp_path):
    grammar = tmp_path / "g.pcfg"
    grammar.write_text("1.0 S -> A B\n0.75 A -> fast\n0.25 A -> slow\n"
                       "1.0 B -> go\n")
    scorer = shlex.join([sys.executable, "-m", "syntaxprobe.pcfg_scorer",
                         str(grammar)])
    base = ["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
            "score", "--suite-file", str(_tiny_suite(tmp_path))]
    assert run(base + ["--model", f"pcfg:{grammar}", "--model-name", "a"]) == 0
    assert run(base + ["--model", f"subprocess:{scorer}", "--model-name", "b"]) == 0
    surprisals = tmp_path / "out" / "surprisals"
    assert (surprisals / "tiny.b.surp").read_bytes() == (
        surprisals / "tiny.a.surp").read_bytes()


def test_bad_model_spec_is_usage_error(tmp_path, capsys):
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", config, "--out", str(out)]
    assert run(base + ["ingest"]) == 0
    assert run(base + ["gen", "--suite", "number_base"]) == 0
    rc = run(base + ["score",
                     "--suite-file", str(out / "suites" / "number_base.suite"),
                     "--model", "nonsense"])
    assert rc == 2
    assert "error:usage-error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ['subprocess:"x', "subprocess: "],
                         ids=["unclosed-quote", "no-command"])
def test_subprocess_spec_without_a_command_is_usage_error(tmp_path, capsys, spec):
    out = tmp_path / "out"
    rc = run(["--config", _write_config(tmp_path), "--out", str(out), "score",
              "--suite-file", str(_tiny_suite(tmp_path)), "--model", spec])
    assert rc == 2
    assert f"error:usage-error: bad model spec {spec!r}" in capsys.readouterr().err
    assert not out.exists()


def test_scorer_that_exits_before_its_header_names_its_status(tmp_path, capsys):
    # The scorer prints its own usage-error line and exits 2 on a grammar
    # file it cannot read; the CLI's line names the command and that status.
    scorer = shlex.join([sys.executable, "-m", "syntaxprobe.pcfg_scorer",
                         str(tmp_path / "missing.pcfg")])
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "score", "--suite-file", str(_tiny_suite(tmp_path)),
              "--model", f"subprocess:{scorer}"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error:format-error: scorer {scorer} did not announce "
        "'#syntax-probe-scorer v2' (got ''; exit status 2)\n")


def test_scorer_whose_header_is_not_utf8_is_named(tmp_path, capsys):
    # The CLI's line names the scorer command, where it once named no file.
    script = tmp_path / "scorer.py"
    script.write_text("import sys\n"
                      "sys.stdout.buffer.write(b'\\xff\\xfe header\\n')\n"
                      "sys.stdout.flush()\n"
                      "sys.stdin.readline()\n")
    scorer = shlex.join([sys.executable, str(script)])
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "score", "--suite-file", str(_tiny_suite(tmp_path)),
              "--model", f"subprocess:{scorer}"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error:format-error: scorer {scorer} announced a header that is not "
        "UTF-8 ('utf-8' codec can't decode byte 0xff in position 0")
    assert not (tmp_path / "out" / "surprisals").exists()


def test_dead_beam_names_the_suite_file_and_sentence(tmp_path, capsys):
    # The second suite's ungrammatical sentence is outside the grammar's
    # language {fast, slow} go: the call stops there, and the first suite's
    # surprisals do not land either.
    first, second = _two_tiny_suites(tmp_path)
    _corrupt(pathlib.Path(second), "slow go", "slow stop")
    out = tmp_path / "out"
    rc = run(["--config", _write_config(tmp_path), "--out", str(out), "score",
              "--suite-file", first, second,
              "--model", f"pcfg:{_tiny_grammar(tmp_path)}", "--model-name", "g"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error:dead-beam: {second}: tiny2.b2.fast.f00:ungram: no live parser "
        "states before word 1 ('stop')\n")
    assert not (out / "surprisals").exists()


# ---------------------------------------------------------------------------
# Many suites per score/eval call


def _tiny_grammar(tmp_path):
    grammar = tmp_path / "g.pcfg"
    grammar.write_text("1.0 S -> A B\n0.75 A -> fast\n0.25 A -> slow\n"
                       "1.0 B -> go\n")
    return grammar


def _two_tiny_suites(tmp_path):
    first = _tiny_suite(tmp_path)
    second = tmp_path / "tiny2.suite"
    second.write_text(first.read_text().replace("tiny", "tiny2"))
    return [str(first), str(second)]


def _golden():
    """The README pipeline's recorded digests, as {relative path: sha256}."""
    with open(DATA / "golden" / "toy_pipeline.sha256", encoding="utf-8") as fh:
        return {rel: digest for digest, rel in map(str.split, fh)}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_one_score_and_one_eval_call_match_golden(tmp_path, capsys):
    # The golden digests come from the README config, which keeps the
    # defaults for these two keys.
    config = _toy_config(tmp_path, filler_min_count="50", order="5")
    out = tmp_path / "out"
    base = ["--config", config, "--out", str(out)]
    for step in (["ingest"], ["gen", "--suite", "all"], ["train-ngram"]):
        assert run(base + step) == 0
    suite_files = sorted((out / "suites").glob("*.suite"))
    assert len(suite_files) == 13
    surps = [out / "surprisals" / f"{p.stem}.ngram5.surp" for p in suite_files]
    capsys.readouterr()
    assert run(base + ["score", "--suite-file", *map(str, suite_files),
                       "--model-name", "ngram5"]) == 0
    assert run(base + ["eval", "--suite-file", *map(str, suite_files),
                       "--surprisal-file", *map(str, surps),
                       "--model-name", "ngram5"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("score: ") for line in printed) == 13
    assert sum(line.startswith("eval: ") for line in printed) == 13
    golden = _golden()
    for stage in ("surprisals", "eval"):
        written = sorted(f"{stage}/{p.name}" for p in (out / stage).iterdir())
        assert written == sorted(r for r in golden if r.startswith(stage + "/"))
        for rel in written:
            assert _sha256(out / rel) == golden[rel], rel


def test_eval_with_unequal_file_counts_is_usage_error(tmp_path, capsys):
    suites = _two_tiny_suites(tmp_path)
    out = tmp_path / "out"
    rc = run(["--config", _write_config(tmp_path), "--out", str(out),
              "eval", "--suite-file", *suites, "--surprisal-file", "a.surp"])
    assert rc == 2
    assert ("error:usage-error: 2 --suite-file paths but 1 --surprisal-file"
            in capsys.readouterr().err)
    assert not (out / "eval").exists()


def test_adapter_is_a_bad_model_spec(tmp_path, capsys):
    # External surprisals go to eval --surprisal-file; score runs models only.
    suite_file = _tiny_suite(tmp_path)
    surp = tmp_path / "tiny.surp"
    scoring.write_surprisal_file(
        [scoring.SurprisalRecord(f"tiny.b2.fast.f00:{cond}", (word, "go"),
                                 (1.0, 1.0))
         for cond, word in (("gram", "fast"), ("ungram", "slow"))], surp)
    out = tmp_path / "out"
    rc = run(["--config", _write_config(tmp_path), "--out", str(out),
              "score", "--suite-file", str(suite_file),
              "--model", f"adapter:{surp}"])
    assert rc == 2
    assert (f"error:usage-error: bad model spec 'adapter:{surp}'"
            in capsys.readouterr().err)
    assert not (out / "surprisals").exists()


@pytest.mark.parametrize("stage", ["score", "eval"])
def test_malformed_second_suite_writes_no_surprisals(tmp_path, capsys, stage):
    # The first suite is done before the second is read: its output does
    # not land either, and no .tmp is left.
    good, bad = _two_tiny_suites(tmp_path)
    config, model = _write_config(tmp_path), f"pcfg:{_tiny_grammar(tmp_path)}"
    scored = tmp_path / "scored"
    assert run(["--config", config, "--out", str(scored), "score",
                "--suite-file", good, bad, "--model", model, "--model-name", "g"]) == 0
    surps = [str(scored / "surprisals" / f"{s}.g.surp") for s in ("tiny", "tiny2")]
    _corrupt(pathlib.Path(bad), "\t2\tgram\t", "\ttwo\tgram\t")
    args = {"score": ["--model", model],
            "eval": ["--surprisal-file", *surps, "--model-name", "g"]}[stage]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run(["--config", config, "--out", str(out), stage,
              "--suite-file", good, bad, *args])
    assert rc == 1
    assert f"error:format-error: {bad}:" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


def test_a_suite_given_twice_lands_once(tmp_path):
    # Both passes write the same path; it lands once, with the bytes of a
    # one-suite call.
    suite, grammar = str(_tiny_suite(tmp_path)), _tiny_grammar(tmp_path)
    outputs = {}
    for copies in (1, 2):
        out = tmp_path / f"out{copies}"
        base = ["--config", _write_config(tmp_path), "--out", str(out)]
        assert run(base + ["score", "--suite-file", *[suite] * copies,
                           "--model", f"pcfg:{grammar}", "--model-name", "g"]) == 0
        surp = str(out / "surprisals" / "tiny.g.surp")
        assert run(base + ["eval", "--suite-file", *[suite] * copies,
                           "--surprisal-file", *[surp] * copies,
                           "--model-name", "g"]) == 0
        outputs[copies] = _files(out)
    assert sorted(outputs[1]) == ["eval/tiny.g.eval.csv", "eval/tiny.g.items.csv",
                                  "surprisals/tiny.g.surp"]
    assert outputs[2] == outputs[1]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_subprocess_model_starts_one_scorer_for_many_suites(tmp_path,
                                                             monkeypatch):
    grammar = _tiny_grammar(tmp_path)
    started = []

    class CountingModel(beamsearch.SubprocessActionModel):
        def __init__(self, argv):
            started.append(argv)
            super().__init__(argv)

    monkeypatch.setattr(beamsearch, "SubprocessActionModel", CountingModel)
    scorer = shlex.join([sys.executable, "-m", "syntaxprobe.pcfg_scorer",
                         str(grammar)])
    base = ["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
            "score", "--suite-file", *_two_tiny_suites(tmp_path)]
    assert run(base + ["--model", f"pcfg:{grammar}", "--model-name", "a"]) == 0
    assert run(base + ["--model", f"subprocess:{scorer}", "--model-name", "b"]) == 0
    assert len(started) == 1
    surprisals = tmp_path / "out" / "surprisals"
    for suite_id in ("tiny", "tiny2"):
        assert (surprisals / f"{suite_id}.b.surp").read_bytes() == (
            surprisals / f"{suite_id}.a.surp").read_bytes()


# ---------------------------------------------------------------------------
# Malformed artifacts end in error:format-error, not a traceback


@pytest.mark.parametrize("row", [
    "go\tx\tVB:1\t0\t0\t0\t0",    # non-integer total
    "go\t1\tVB\t0\t0\t0\t0",      # pos pair without ':'
    "go\t1\tVB:one\t0\t0\t0\t0",  # non-integer pos count
    "go\t1\tVB:1\t0\t0\t0\t1.5",  # non-integer vbn count
    "Go\t1\tVB:1\t0\t0\t0\t0",    # the word of line 2 again, once case-folded
    "run\t-50\tVB:1\t0\t0\t0\t0",  # negative total
    "run\t1\tVB:-1\t0\t0\t0\t0",   # negative pos count
    "run\t1\tVB:1\t-1\t0\t0\t0",   # negative evidence counts
    "run\t1\tVB:1\t0\t-1\t0\t0",
    "run\t1\tVB:1\t0\t0\t-1\t0",   # negative inverted count
    "run\t1\tVB:1\t0\t0\t0\t-1",   # negative vbn count
])
def test_bad_lexicon_row_is_format_error(tmp_path, capsys, row):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "go\t2\tVB:2\t0\t0\t0\t0\n" + row + "\n")
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "stats", "--lexicon", str(lexicon)])
    assert rc == 1
    assert f"error:format-error: {lexicon}:3:" in capsys.readouterr().err


def _corrupt(path, old, new) -> int:
    """Replace the first ``old`` in a file by ``new``; the first changed line."""
    good = path.read_text()
    assert old in good
    path.write_text(good.replace(old, new, 1))
    bad = path.read_text().splitlines()
    return next(i for i, (a, b) in enumerate(zip(good.splitlines(), bad), start=1)
                if a != b)


@pytest.mark.parametrize("old, new", [
    ("\t2\tgram\t", "\ttwo\tgram\t"),
    ("slow go\t0\t1", "slow go\t0\tone"),
    ("#invariance\t0", "#invariance\tno"),
    ("#invariance\t0", "#invariance"),
    ("#item_id", "#shortfall\t2\tsingular\n#item_id"),
    ("fast go\t0\t1", "fast go\t2\t99"),
    ("slow go\t0\t1", "slow go\t2\t2"),
    ("\t2\tgram\t", "\t0\tgram\t"),
    ("\ttiny\tfast\tsingular\t2\tungram", "\ttiny2\tfast\tsingular\t2\tungram"),
    ("\tfast\tsingular\t2\tungram", "\tslow\tsingular\t2\tungram"),
    ("singular\t2\tungram", "plural\t2\tungram"),
    ("\t2\tungram", "\t3\tungram"),
    ("\t2\tungram\t", "\t2\tgram\tslow go\t0\t1\n"
     "tiny.b2.fast.f00\ttiny\tfast\tsingular\t2\tungram\t"),
    ("\t2\tungram\t", "\t2\tmaybe\t"),
], ids=["bucket", "region-end", "invariance", "key-without-value",
        "short-shortfall", "region-outside-sentence", "region-empty",
        "bucket-zero", "suite-mismatch", "target-mismatch", "category-mismatch",
        "bucket-mismatch", "repeated-condition", "unknown-condition"])
def test_bad_suite_row_is_format_error(tmp_path, capsys, old, new):
    suite_file = _tiny_suite(tmp_path)
    lineno = _corrupt(suite_file, old, new)
    surp = tmp_path / "tiny.surp"
    surp.write_text(f"{scoring.SURPRISAL_HEADER} base=2\n")
    out = tmp_path / "out"
    rc = run(["--config", _write_config(tmp_path), "--out", str(out), "eval",
              "--suite-file", str(suite_file), "--surprisal-file", str(surp)])
    assert rc == 1
    assert f"error:format-error: {suite_file}:{lineno}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("condition", ["maybe", "Gram", "target", "bucket"])
def test_suite_row_of_no_known_condition_is_rejected_at_its_line(tmp_path,
                                                                 condition):
    # A condition spelled like a column is no "second target row".
    suite_file = _tiny_suite(tmp_path)
    lineno = _corrupt(suite_file, "\t2\tungram\t", f"\t2\t{condition}\t")
    with pytest.raises(FormatError) as err:
        suites.read_suite(suite_file)
    assert str(err.value) == (f"{suite_file}:{lineno}: item 'tiny.b2.fast.f00' has "
                              f"condition {condition!r}, not one of gram, ungram")


@pytest.mark.parametrize("text", [
    "[x]\nkind = nope\n",
    "[x]\nkind = copula_agreement\nkind = passive_aux\n",
    "kind = nope\n",
], ids=["unknown-kind", "repeated-key", "no-section-header"])
def test_bad_suite_defs_name_the_file_on_one_line(tmp_path, capsys, monkeypatch,
                                                  text):
    defs = tmp_path / "defs.cfg"
    defs.write_text(text)
    monkeypatch.setenv("SP_SUITE_DEFS", str(defs))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "fast\t2\tJJ:2\t0\t0\t0\t0\n")
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "gen", "--suite", "all", "--lexicon", str(lexicon)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:format-error: {defs}: ")
    assert err.count("\n") == 1 and "<string>" not in err


@pytest.mark.parametrize("section, line", [
    ("argstruct_active_inf", "target_tagg = VB"),
    ("number_base", "frame_with_aux = The {subject} was {target} ."),
], ids=["misspelt-key", "other-kinds-frame"])
def test_unknown_suite_defs_key_names_file_section_and_key(tmp_path, capsys,
                                                           monkeypatch, section, line):
    defs = tmp_path / "defs.cfg"
    defs.write_text(toydata.default_suites_path().read_text(encoding="utf-8")
                    .replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    monkeypatch.setenv("SP_SUITE_DEFS", str(defs))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "fast\t2\tJJ:2\t0\t0\t0\t0\n")
    out = tmp_path / "out"
    assert run(["--config", _write_config(tmp_path), "--out", str(out),
                "gen", "--suite", "all", "--lexicon", str(lexicon)]) == 1
    key = line.split(" = ")[0]
    assert capsys.readouterr().err == (
        f"error:format-error: {defs}: [{section}]: unknown key {key!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("order\t2", "order\tfive"),
    ("unk\t0", "unk"),
    ("2\t0.5\t0.5\t0.5", "2\t0.5\t0.5"),
    ("[ngrams 2]", "[ngrams two]"),
    ("fast go\t1", "fast go\tone"),
    ("fast\t1", "fast go\t1"),
    ("order\t2", "order\t0"),
    ("fast go\t1", "fast go\t0"),
    ("2\t0.5\t0.5\t0.5", "2\t0.5\tnan\t0.5"),
    ("2\t0.5\t0.5\t0.5", "2\tinf\t0.5\t0.5"),
    ("1\t0.5\t1.0\t1.0", "1\t-1.0\t1.0\t1.0"),
    ("2\t0.5\t0.5\t0.5", "2\t0.5\t0.5\t7.5"),
    ("2\t0.5\t0.5\t0.5", "3\t0.5\t0.5\t0.5"),
    ("fast go\t1\n", "fast go\t1\nfast go\t1\n"),
    ("unk\t0", "unk\t7"),
    ("fallback\t2", "fallback\t9"),
    ("[ngrams 1]\nfast\t1\ngo\t2\nslow\t1\n", "[ngrams 1]\n"),
], ids=["order", "key-without-tab", "short-discounts", "ngrams-header", "count",
        "gram-length", "order-zero", "count-zero", "discount-nan",
        "discount-inf", "discount-negative", "discount-above-one",
        "discount-order", "gram-twice", "unk-flag", "fallback-order",
        "empty-unigrams"])
def test_bad_model_row_is_format_error(tmp_path, capsys, old, new):
    model = tmp_path / "bad.model"
    ngram.write_model(ngram.train([["fast", "go"], ["slow", "go"]], order=2),
                      model)
    lineno = _corrupt(model, old, new)
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "score", "--suite-file", str(_tiny_suite(tmp_path)),
              "--model", f"ngram:{model}"])
    assert rc == 1
    assert f"error:format-error: {model}:{lineno}:" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "tiny.b2.fast.f00:gram\tzero\tfast\t1.0",  # non-integer index
    "tiny.b2.fast.f00:gram\t0\tfast\tabc",     # non-float surprisal
    "tiny.b2.fast.f00:gram\t1\tfast\t1.0",     # index out of sequence
])
def test_bad_surprisal_row_is_format_error(tmp_path, capsys, row):
    surp = tmp_path / "bad.surp"
    surp.write_text(f"{scoring.SURPRISAL_HEADER} base=2\n{row}\n")
    base = ["--config", _write_config(tmp_path), "--out", str(tmp_path / "out")]
    suite_file = str(_tiny_suite(tmp_path))
    rc = run(base + ["eval", "--suite-file", suite_file,
                     "--surprisal-file", str(surp)])
    assert rc == 1
    assert f"error:format-error: {surp}:2:" in capsys.readouterr().err


_ITEMS_HEAD = "suite,model,item_id,bucket,category,target,gram_bits,ungram_bits,correct"
_ITEMS_ROW = "tiny,m,tiny.b2.fast.f00,2,singular,fast,1.0,2.0,1"
_EVAL_HEAD = "suite,model,bucket,category,n,k,accuracy,ci_lo,ci_hi,p_above_chance"
_EVAL_ROW = "tiny,m,2,all,1,1,1.000000,0.206543,1.000000,0.5"
_HUGE = "x" * 131_073  # past the csv module's default field size limit


@pytest.mark.parametrize("text, lineno", [
    (f"{_ITEMS_HEAD}\n{_ITEMS_ROW}\n{_ITEMS_ROW[:-2]}\n", 3),
    (f"{_ITEMS_HEAD}\n{_ITEMS_ROW}\n{_ITEMS_ROW},1\n", 3),
    (f"{_ITEMS_HEAD[:-8]}\n{_ITEMS_ROW[:-2]}\n", 1),
    (f"{_ITEMS_HEAD}\n{_ITEMS_ROW}\n{_ITEMS_ROW[:-1]}yes\n", 3),
    (f"{_ITEMS_HEAD}\n{_ITEMS_ROW.replace(',2,', ',two,')}\n", 2),
    (f"{_ITEMS_HEAD}\n{_ITEMS_ROW}\n{_ITEMS_ROW.replace(',2,', ',0,')}\n", 3),
    (f"{_ITEMS_HEAD}\n{_ITEMS_ROW}\n{_ITEMS_ROW[:-1]}2\n", 3),
    (f"{_ITEMS_HEAD}\n{_ITEMS_ROW}\n{_ITEMS_ROW.replace(',fast,', f',{_HUGE},')}\n", 3),
], ids=["short-row", "long-row", "missing-column", "correct-not-int",
        "bucket-not-int", "bucket-zero", "correct-two", "field-too-large"])
def test_bad_items_csv_is_format_error(tmp_path, capsys, text, lineno):
    items = tmp_path / "tiny.m.items.csv"
    items.write_text(text)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "fast\t2\tJJ:2\t0\t0\t0\t0\n")
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "analyze", "--items", str(items), "--lexicon", str(lexicon)])
    assert rc == 1
    assert f"error:format-error: {items}:{lineno}:" in capsys.readouterr().err


@pytest.mark.parametrize("which, text, lineno", [
    ("eval", _EVAL_HEAD.replace("category,", "") + "\n"
     + _EVAL_ROW.replace("all,", "") + "\n", 1),
    ("eval", f"{_EVAL_HEAD}\n{_EVAL_ROW}\n{_EVAL_ROW[:-4]}\n", 3),
    ("fits", "suite,model,analysis,term,estimate,se,z,p\n"
     "tiny,*,supervision,model:m,0.1,0.1,1.0,0.3\n", 1),
    ("eval", f"{_EVAL_HEAD}\n{_EVAL_ROW[:-3]}n/a\n", 2),
    ("fits", "suite,model,analysis,term,estimate,se,z,p,stars\n"
     f"tiny,*,supervision,model:m,0.1,0.1,1.0,0.3,{_HUGE}\n", 2),
], ids=["eval-missing-category", "eval-short-row", "fits-missing-stars",
        "eval-p-not-float", "fits-field-too-large"])
def test_bad_report_input_is_format_error(tmp_path, capsys, which, text, lineno):
    evals = tmp_path / "tiny.m.eval.csv"
    evals.write_text(f"{_EVAL_HEAD}\n{_EVAL_ROW}\n")
    fits = tmp_path / "fits.csv"
    bad = evals if which == "eval" else fits
    bad.write_text(text)
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "report", "--eval", str(evals), "--fits", str(fits)])
    assert rc == 1
    assert f"error:format-error: {bad}:{lineno}:" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["analyze", "report"])
@pytest.mark.parametrize("same_file", [True, False], ids=["same-file", "two-files"])
def test_duplicated_input_rows_are_alignment_errors(tmp_path, capsys, stage, same_file):
    # A row read twice would count a bucket twice in the report grid, or
    # halve the standard errors of every fit.
    head, row = (_ITEMS_HEAD, _ITEMS_ROW) if stage == "analyze" else (_EVAL_HEAD, _EVAL_ROW)
    other = row.replace(".f00", ".f01").replace(",2,", ",3,")  # another item, bucket
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text(f"{head}\n{row}\n")
    second.write_text(f"{head}\n{other}\n{row}\n")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "fast\t2\tJJ:2\t0\t0\t0\t0\n")
    repeat = f"{first}:2" if same_file else f"{second}:3"
    inputs = [str(first), str(first if same_file else second)]
    argv = (["analyze", "--items", *inputs, "--lexicon", str(lexicon)]
            if stage == "analyze" else ["report", "--eval", *inputs])
    out = tmp_path / "out"
    assert run(["--config", _write_config(tmp_path), "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:alignment-error: {repeat}: a second row for suite, model, ")
    assert err.rstrip().endswith(f"first read at {first}:2")
    assert not out.exists()


def test_analyze_records_a_curve_it_cannot_fit(tmp_path):
    # Group "flat": both targets occur twice, so there is one exposure value
    # and no curve.  Group "spread": three exposure values and mixed outcomes.
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       + "".join(f"{w}\t{n}\tJJ:{n}\t0\t0\t0\t0\n"
                                 for w, n in (("fast", 2), ("slow", 2),
                                              ("calm", 5), ("wild", 30))))
    rows = [_ITEMS_HEAD]
    for suite, targets in (("flat", ("fast", "slow")),
                           ("spread", ("fast", "calm", "wild"))):
        for i in range(12):
            target = targets[i % len(targets)]
            rows.append(f"{suite},m,{suite}.{i},2,singular,{target},1.0,2.0,"
                        f"{(i // 2) % 2}")
    items = tmp_path / "m.items.csv"
    items.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run(["--config", _write_config(tmp_path), "--out", str(out),
                "analyze", "--items", str(items), "--lexicon", str(lexicon)]) == 0
    charts = {c["suite"]: c for c in json.loads(
        (out / "analysis" / "charts.json").read_text())["charts"]}
    assert charts["flat"]["curve"] == []
    assert charts["flat"]["curve_error"] == "error:undefined-input"
    assert len(charts["spread"]["curve"]) == 100
    assert "curve_error" not in charts["spread"]
    with open(out / "analysis" / "curves.csv", newline="") as fh:
        assert {r["suite"] for r in csv.DictReader(fh)} == {"spread"}


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """The README pipeline through eval and analyze on all 13 toy suites:
    (config, out directory, items CSV paths)."""
    tmp = tmp_path_factory.mktemp("toy_run")
    config = _toy_config(tmp, filler_min_count="50", order="5")
    out = tmp / "out"
    base = ["--config", config, "--out", str(out)]
    for step in (["ingest"], ["gen", "--suite", "all"], ["train-ngram"]):
        assert run(base + step) == 0
    suite_files = sorted(map(str, (out / "suites").glob("*.suite")))
    assert run(base + ["score", "--suite-file", *suite_files,
                       "--model-name", "ngram5"]) == 0
    surps = [str(out / "surprisals" / f"{pathlib.Path(p).stem}.ngram5.surp")
             for p in suite_files]
    assert run(base + ["eval", "--suite-file", *suite_files,
                       "--surprisal-file", *surps, "--model-name", "ngram5"]) == 0
    items = sorted(map(str, (out / "eval").glob("*.items.csv")))
    assert run(base + ["analyze", "--items", *items]) == 0
    return config, out, items


def test_chart_points_are_the_eval_all_rows(toy_run):
    _, out, _ = toy_run
    charts = json.loads((out / "analysis" / "charts.json").read_text())["charts"]
    assert len(charts) == 13
    for chart in charts:
        rows = scoring.read_eval_csv(
            out / "eval" / f"{chart['suite']}.{chart['model']}.eval.csv")
        want = [(int(r["bucket"]), r["accuracy"], r["ci_lo"], r["ci_hi"], int(r["n"]))
                for r in rows if r["category"] == "all"]
        got = [(p["bucket"], f"{p['accuracy']:.6f}", f"{p['ci_lo']:.6f}",
                f"{p['ci_hi']:.6f}", p["n"]) for p in chart["points"]]
        assert got == want, chart["suite"]


def test_analyze_rejects_a_lexicon_that_did_not_make_the_suite(toy_run, tmp_path,
                                                               capsys):
    config, _, items = toy_run
    other = tmp_path / "traces"
    assert run(["--config", _write_config(tmp_path, corpus=str(DATA / "traces.mrg")),
                "--out", str(other), "ingest"]) == 0
    lexicon = other / "lexicon.tsv"
    number_base = [p for p in items if p.endswith("number_base.ngram5.items.csv")]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run(["--config", config, "--out", str(out), "analyze",
              "--items", *number_base, "--lexicon", str(lexicon)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:alignment-error: target ")
    assert f"of suite number_base does not occur in lexicon {lexicon}" in err
    assert not out.exists()


def test_eval_of_surprisals_from_outside_out_matches_golden(toy_run, tmp_path):
    # Surprisals computed elsewhere go straight to eval: a copy of the
    # pipeline's own file, read from outside out/, gives the same CSVs.
    config, out, _ = toy_run
    surp = tmp_path / "number_base.ngram5.surp"
    shutil.copyfile(out / "surprisals" / surp.name, surp)
    ext = tmp_path / "ext"
    assert run(["--config", config, "--out", str(ext), "eval",
                "--suite-file", str(out / "suites" / "number_base.suite"),
                "--surprisal-file", str(surp), "--model-name", "ngram5"]) == 0
    golden = _golden()
    for name in ("items", "eval"):
        rel = f"eval/number_base.ngram5.{name}.csv"
        assert _sha256(ext / rel) == golden[rel], rel


# ---------------------------------------------------------------------------
# Metamorphic relations: outputs that must not depend on how a run is cut up


def _files(root):
    """Every file under ``root`` as {relative path: bytes}."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_call_over_all_suites_equals_one_call_per_suite(toy_run, tmp_path):
    # One score call shares its model, and the model's window memo, across
    # all 13 suites; thirteen calls start from an empty memo each time.
    config, out, _ = toy_run
    apart = tmp_path / "apart"
    base = ["--config", config, "--out", str(apart)]
    for suite in sorted((out / "suites").glob("*.suite")):
        assert run(base + ["score", "--suite-file", str(suite), "--model",
                           f"ngram:{out / 'ngram.model'}",
                           "--model-name", "ngram5"]) == 0
        surp = apart / "surprisals" / f"{suite.stem}.ngram5.surp"
        assert run(base + ["eval", "--suite-file", str(suite),
                           "--surprisal-file", str(surp),
                           "--model-name", "ngram5"]) == 0
    for stage in ("surprisals", "eval"):
        assert _files(apart / stage) == _files(out / stage), stage


def test_tree_order_and_file_split_change_no_output(tmp_path):
    given = toydata.toy_treebank_path()
    lines = given.read_text().splitlines(keepends=True)
    assert len(corpus.read_treebank(given)) == len(lines)  # one tree a line
    shuffled = lines[:]
    random.Random(7).shuffle(shuffled)
    corpora = {"shuffled": [shuffled], "split": [lines[:1000], lines[1000:]]}
    outputs = {}
    for name, parts in {"given": [lines], **corpora}.items():
        paths = []
        for i, part in enumerate(parts):
            paths.append(tmp_path / f"{name}{i}.mrg")
            paths[-1].write_text("".join(part))
        (tmp_path / name).mkdir()
        config = _toy_config(tmp_path / name, filler_min_count="50", order="5",
                             corpus=",".join(map(str, paths)))
        base = ["--config", config, "--out", str(tmp_path / name / "out")]
        for step in (["ingest"], ["stats"], ["gen", "--suite", "all"],
                     ["train-ngram"]):
            assert run(base + step) == 0, (name, step)
        outputs[name] = _files(tmp_path / name / "out")
    assert len(outputs["given"]) == 1 + 4 + 13 + 1
    for name in corpora:
        assert outputs[name] == outputs["given"], name


# ---------------------------------------------------------------------------
# Streaming the treebank, and one string per spelling


def test_ingest_memory_does_not_grow_with_the_treebank(tmp_path):
    # A stage that held the parsed trees would peak about 4x higher on four
    # copies of the treebank; a streaming one holds one tree at a time.
    import tracemalloc
    text = toydata.toy_treebank_path().read_text(encoding="utf-8")
    peaks = {}
    for copies in (1, 4):
        treebank = tmp_path / f"toy{copies}.mrg"
        treebank.write_text(text * copies, encoding="utf-8")
        config = _toy_config(tmp_path, corpus=str(treebank))
        tracemalloc.start()
        try:
            assert run(["--config", config, "--out", str(tmp_path / "out"),
                        "ingest"]) == 0
            peaks[copies] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] < 1.5 * peaks[1], peaks


def test_eval_memory_does_not_grow_with_the_suites(toy_run, tmp_path):
    # eval reads, evaluates and writes one suite at a time: four renamed
    # copies of a suite peak about as high as one.
    import tracemalloc
    _, out, _ = toy_run
    suite_text = (out / "suites" / "number_base.suite").read_text()
    surp_text = (out / "surprisals" / "number_base.ngram5.surp").read_text()
    paths = []
    for i in range(4):
        paths.append((tmp_path / f"copy{i}.suite", tmp_path / f"copy{i}.surp"))
        for path, text in zip(paths[-1], (suite_text, surp_text)):
            path.write_text(text.replace("number_base", f"number_base_{i}"))
    peaks = {}
    for copies in (1, 4):
        suite_files, surp_files = zip(*paths[:copies])
        tracemalloc.start()
        try:
            assert run(["--config", _toy_config(tmp_path), "--out",
                        str(tmp_path / "out"), "eval",
                        "--suite-file", *map(str, suite_files),
                        "--surprisal-file", *map(str, surp_files)]) == 0
            peaks[copies] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4] < 1.5 * peaks[1], peaks


def test_readers_hold_one_string_per_spelling(toy_run):
    _, out, _ = toy_run
    suite = out / "suites" / "number_base.suite"
    surp = out / "surprisals" / "number_base.ngram5.surp"
    read = {
        "parse": [s for tree in corpus.read_treebank(toydata.toy_treebank_path())
                  for pair in tree.terminals() for s in pair],
        "read_model": [w for grams in ngram.read_model(out / "ngram.model").grams
                       for gram in grams for w in gram],
        "read_suite": [w for item in suites.read_suite(suite).items
                       for condition in suites.CONDITIONS
                       for w in item.tokens(condition)],
        "read_surprisal_file": [w for rec in scoring.read_surprisal_file(surp)
                                for w in rec.tokens],
    }
    for reader, words in read.items():
        assert len({id(w) for w in words}) == len(set(words)) < len(words), reader


def test_leaves_cut_by_a_newline_give_the_golden_lexicon_and_model(tmp_path):
    # With a newline before each leaf's ')' no leaf is one token, and the
    # parser falls back to one token per bracket and atom throughout.
    text = toydata.toy_treebank_path().read_text(encoding="utf-8")
    leaf = r"\(([^\s()]+) ([^\s()]+)\)"
    split = re.sub(leaf, "(\\1 \\2\n)", text)
    assert re.search(leaf, text) and not re.search(leaf, split)
    treebank = tmp_path / "split_leaves.mrg"
    treebank.write_text(split, encoding="utf-8")
    config = _toy_config(tmp_path, corpus=str(treebank), filler_min_count="50",
                         order="5")
    out = tmp_path / "out"
    golden = _golden()
    for step, name in (("ingest", "lexicon.tsv"), ("train-ngram", "ngram.model")):
        assert run(["--config", config, "--out", str(out), step]) == 0
        assert _sha256(out / name) == golden[name], name


def test_truncated_treebank_rewrites_no_artifact(tmp_path, capsys):
    # The stages fold the trees before the unclosed one, then stop: the
    # artifacts of the earlier run keep their bytes.
    config = _toy_config(tmp_path)
    out = tmp_path / "out"
    for step in ("ingest", "train-ngram"):
        assert run(["--config", config, "--out", str(out), step]) == 0
    kept = {name: (out / name).read_bytes() for name in ("lexicon.tsv", "ngram.model")}
    text = toydata.toy_treebank_path().read_text(encoding="utf-8")
    assert text.endswith("))\n")
    truncated = tmp_path / "truncated.mrg"
    truncated.write_text(text[:-2] + "\n", encoding="utf-8")
    line = text.count("\n")
    config = _toy_config(tmp_path, corpus=str(truncated))
    capsys.readouterr()
    for step in ("ingest", "train-ngram"):
        assert run(["--config", config, "--out", str(out), step]) == 1
        assert capsys.readouterr().err.startswith(
            f"error:parse-error: {truncated}:{line}: unclosed '('"), step
        assert list(tmp_path.rglob("*.tmp")) == []
        assert {name: (out / name).read_bytes() for name in kept} == kept


# ---------------------------------------------------------------------------
# Bad config values, unreadable inputs and deep trees


@pytest.mark.parametrize("key, value, command", [
    ("seed", "x", ["ingest"]),
    ("order", "five", ["train-ngram"]),
    ("words_per_category", "-3", ["gen", "--suite", "number_base"]),
    ("frames_per_word", "2.5", ["gen", "--suite", "number_base"]),
    ("filler_min_count", "", ["gen", "--suite", "number_base"]),
    ("transitive_hi", "nan", ["stats"]),
    ("intransitive_lo", "low", ["stats"]),
    ("eps_tie", "tiny", ["eval", "--suite-file", "s", "--surprisal-file", "p"]),
    ("lowercase", "maybe", ["ingest"]),
    ("map_singletons", "2", ["train-ngram"]),
    ("buckets", "2:2-x", ["gen", "--suite", "number_base"]),
    ("buckets", "0:0-4", ["gen", "--suite", "number_base"]),
    ("buckets", "5:9-3", ["gen", "--suite", "number_base"]),
    ("transitive_hi", "0.05", ["stats"]),
    ("lowercase", "maybe", ["stats"]),
    ("buckets", "4:3-4,4:5-6", ["gen", "--suite", "number_base"]),
])
def test_bad_config_value_is_usage_error(tmp_path, capsys, monkeypatch, key,
                                         value, command):
    monkeypatch.setenv("SP_" + key.upper(), value)
    out = tmp_path / "out"
    rc = run(["--config", _write_config(tmp_path), "--out", str(out)] + command)
    assert rc == 2
    assert f"error:usage-error: config key {key} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "seed = 1\n",
    "[syntaxprobe]\nseed = 1\nseed = 2\n",
], ids=["no-section-header", "repeated-key"])
def test_bad_config_file_is_usage_error(tmp_path, capsys, text):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    assert run(["--config", str(config), "ingest"]) == 2
    assert "error:usage-error: bad config file:" in capsys.readouterr().err


@pytest.mark.parametrize("which", [
    "surprisal-file", "lexicon", "items", "SP_TRANSITIVITY", "SP_SUITE_DEFS"])
def test_non_utf8_input_is_format_error(tmp_path, capsys, monkeypatch, which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("#syntax-probe café\n".encode("latin-1"))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "fast\t2\tJJ:2\t0\t0\t0\t0\n")
    args = {
        "surprisal-file": ["eval", "--suite-file", str(_tiny_suite(tmp_path)),
                           "--surprisal-file", str(bad)],
        "lexicon": ["stats", "--lexicon", str(bad)],
        "items": ["analyze", "--items", str(bad), "--lexicon", str(lexicon)],
        "SP_TRANSITIVITY": ["stats", "--lexicon", str(lexicon)],
        "SP_SUITE_DEFS": ["gen", "--suite", "all", "--lexicon", str(lexicon)],
    }[which]
    if which.startswith("SP_"):
        monkeypatch.setenv(which, str(bad))
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out")]
             + args)
    assert rc == 1
    assert "error:format-error: input is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("which", [
    "surprisal-file", "lexicon", "items", "SP_TRANSITIVITY", "SP_SUITE_DEFS"])
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, monkeypatch,
                                            which):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("#syntax-probe\ncafé\n".encode("latin-1"))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "fast\t2\tJJ:2\t0\t0\t0\t0\n")
    args = {
        "surprisal-file": ["eval", "--suite-file", str(_tiny_suite(tmp_path)),
                           "--surprisal-file", str(bad)],
        "lexicon": ["stats", "--lexicon", str(bad)],
        "items": ["analyze", "--items", str(bad), "--lexicon", str(lexicon)],
        "SP_TRANSITIVITY": ["stats", "--lexicon", str(lexicon)],
        "SP_SUITE_DEFS": ["gen", "--suite", "all", "--lexicon", str(lexicon)],
    }[which]
    if which.startswith("SP_"):
        monkeypatch.setenv(which, str(bad))
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out")]
             + args)
    assert rc == 1
    assert (f"error:format-error: input is not UTF-8: {bad}:2: byte 0xe9"
            in capsys.readouterr().err)


def test_non_utf8_line_counts_past_the_first_decoded_chunk(tmp_path):
    # The text reader decodes 8 KiB at a time, so the byte's offset within
    # its chunk is not its offset in the file.
    bad = tmp_path / "long.txt"
    bad.write_bytes(b"ok\n" * 5000 + b"caf\xe9\n")
    with pytest.raises(FormatError, match=f"{bad}:5001: byte 0xe9"):
        with open_text(bad) as fh:
            fh.read()


def test_non_utf8_config_is_format_error(tmp_path, capsys):
    config = tmp_path / "probe.cfg"
    config.write_bytes(b"[syntaxprobe]\nseed = 1\n# caf\xe9\n")
    assert run(["--config", str(config), "ingest"]) == 1
    assert (f"error:format-error: input is not UTF-8: {config}:3: byte 0xe9"
            in capsys.readouterr().err)


@pytest.mark.parametrize("which", ["suite-file", "config"])
def test_directory_as_input_is_usage_error(tmp_path, capsys, which):
    config = str(tmp_path) if which == "config" else _write_config(tmp_path)
    suite = str(tmp_path) if which == "suite-file" else "x"
    rc = run(["--config", config, "--out", str(tmp_path / "out"),
              "eval", "--suite-file", suite, "--surprisal-file", "x"])
    assert rc == 2
    assert f"error:usage-error: {tmp_path}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("text, expected", [
    ("1.0 S -> A B\n1.0 A -> a\nB -> b\n",
     "format-error: {grammar}: line 3: expected 'P LHS -> RHS...'"),
    ("1.0 S -> A B\nnan A -> a\n1.0 B -> b\n", "grammar-error: {grammar}: rule "),
], ids=["bad-line", "nan-probability"])
def test_bad_grammar_names_file(tmp_path, capsys, text, expected):
    grammar = tmp_path / "bad.pcfg"
    grammar.write_text(text)
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "score", "--suite-file", str(_tiny_suite(tmp_path)),
              "--model", f"pcfg:{grammar}"])
    assert rc == 1
    assert "error:" + expected.format(grammar=grammar) in capsys.readouterr().err


def test_suite_without_items_is_format_error(tmp_path, capsys):
    suite_file = _tiny_suite(tmp_path)
    suite_file.write_text("".join(suite_file.read_text().splitlines(True)[:-2]))
    surp = tmp_path / "tiny.surp"
    surp.write_text(f"{scoring.SURPRISAL_HEADER} base=2\n")
    out = tmp_path / "out"
    base = ["--config", _write_config(tmp_path), "--out", str(out)]
    assert run(base + ["eval", "--suite-file", str(suite_file),
                       "--surprisal-file", str(surp)]) == 1
    err = capsys.readouterr().err
    assert err.count(f"error:format-error: {suite_file}: suite has no items") == 1
    assert not (out / "eval").exists()


def test_item_without_its_ungram_row_is_format_error(tmp_path, capsys):
    suite_file = _tiny_suite(tmp_path)
    suite_file.write_text("".join(suite_file.read_text().splitlines(True)[:-1]))
    surp = tmp_path / "tiny.surp"
    surp.write_text(f"{scoring.SURPRISAL_HEADER} base=2\n")
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "eval", "--suite-file", str(suite_file), "--surprisal-file", str(surp)])
    assert rc == 1
    assert (f"error:format-error: {suite_file}: item 'tiny.b2.fast.f00' missing "
            "a condition" in capsys.readouterr().err)


def test_surprisal_id_that_comes_back_is_duplicate(tmp_path, capsys):
    surp = tmp_path / "dup.surp"
    surp.write_text(f"{scoring.SURPRISAL_HEADER} base=2\n"
                    "tiny.b2.fast.f00:gram\t0\tfast\t1.0\n"
                    "tiny.b2.fast.f00:ungram\t0\tslow\t1.0\n"
                    "tiny.b2.fast.f00:gram\t0\tfast\t1.0\n")
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "eval", "--suite-file", str(_tiny_suite(tmp_path)),
              "--surprisal-file", str(surp)])
    assert rc == 1
    assert (f"error:format-error: {surp}:4: duplicate sentence id"
            in capsys.readouterr().err)


def test_overflowing_region_surprisal_is_input_error(tmp_path, capsys):
    # Each surprisal is finite, but the region's sum is not.
    suite_file = tmp_path / "wide.suite"
    suite_file.write_text(_tiny_suite(tmp_path).read_text()
                          .replace("\tfast go\t0\t1\n", "\tfast go go\t1\t3\n")
                          .replace("\tslow go\t0\t1\n", "\tslow go go\t1\t3\n"))
    surp = tmp_path / "wide.surp"
    surp.write_text(f"{scoring.SURPRISAL_HEADER} base=2\n" + "".join(
        f"tiny.b2.fast.f00:{condition}\t{i}\t{token}\t{value}\n"
        for condition, first in (("gram", "fast"), ("ungram", "slow"))
        for i, (token, value) in enumerate([(first, 1.0), ("go", 1e308), ("go", 1e308)])))
    out = tmp_path / "out"
    rc = run(["--config", _write_config(tmp_path), "--out", str(out),
              "eval", "--suite-file", str(suite_file), "--surprisal-file", str(surp)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error:undefined-input: {suite_file}: item tiny.b2.fast.f00 gram: critical "
        "region surprisal overflows a float\n")
    assert not (out / "eval").exists()


def test_bad_transitivity_mark_names_file_and_line(tmp_path, capsys, monkeypatch):
    marks = tmp_path / "marks.tsv"
    marks.write_text("# verb\tmark\nfast\ttransitive\npraised\tsometimes\n")
    monkeypatch.setenv("SP_TRANSITIVITY", str(marks))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "fast\t2\tJJ:2\t0\t0\t0\t0\n")
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "stats", "--lexicon", str(lexicon)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error:format-error: {marks}:3: bad transitivity mark 'sometimes' "
        "for 'praised'\n")


def test_repeated_transitivity_verb_names_file_and_line(tmp_path, capsys,
                                                        monkeypatch):
    marks = tmp_path / "marks.tsv"
    marks.write_text("# verb\tmark\neat\ttransitive\neat\tintransitive\n")
    monkeypatch.setenv("SP_TRANSITIVITY", str(marks))
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("#syntax-probe-lexicon v1 lowercase=1\n"
                       "eat\t2\tVB:2\t1\t1\t0\t0\n")
    rc = run(["--config", _write_config(tmp_path), "--out", str(tmp_path / "out"),
              "stats", "--lexicon", str(lexicon)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error:format-error: {marks}:3: 'eat' listed twice\n")


def test_deep_tree_goes_through_ingest_and_train_ngram(tmp_path):
    depth = 5000
    treebank = tmp_path / "deep.mrg"
    treebank.write_text(toydata.toy_treebank_path().read_text(encoding="utf-8")
                        + "\n" + "(S " * depth + "(NN abyss)" + ")" * depth + "\n")
    out = tmp_path / "out"
    base = ["--config", _toy_config(tmp_path, corpus=str(treebank)),
            "--out", str(out)]
    assert run(base + ["ingest"]) == 0
    assert run(base + ["train-ngram"]) == 0
    assert "\nabyss\t1\tNN:1\t0\t0\t0\t0\n" in (out / "lexicon.tsv").read_text()
    assert "abyss" in ngram.read_model(out / "ngram.model").support


# ---------------------------------------------------------------------------
# PTB empty elements are not words

# tests/data/traces.mrg by hand, with every -NONE- leaf deleted and every
# constituent that the deletion left empty deleted too.
_TRACES_WITHOUT_EMPTY_ELEMENTS = """\
(S (NP-SBJ-1 (DT The) (NN plan)) (VP (VBD was) (VP (VBN approved))) (. .))
(S (VP (VB Buy) (NP (NNS shares))) (. .))
(S (NP-SBJ (PRP He)) (VP (VBD said) (SBAR (S (NP-SBJ (NNS prices)) (VP (VBD rose))))) (. .))
(S (NP-SBJ (DT The) (NN board)) (VP (VBD met) (NP-TMP (NN today))) (. .))
"""


def test_train_ngram_skips_empty_elements(tmp_path):
    by_hand = tmp_path / "by_hand.mrg"
    by_hand.write_text(_TRACES_WITHOUT_EMPTY_ELEMENTS)
    models = []
    for name, treebank in [("traces", DATA / "traces.mrg"), ("by_hand", by_hand)]:
        out = tmp_path / name
        assert run(["--config", _write_config(tmp_path, corpus=str(treebank)),
                    "--out", str(out), "train-ngram"]) == 0
        models.append((out / "ngram.model").read_bytes())
    assert models[0] == models[1]
    assert not {"*", "*-1", "0"} & set(ngram.read_model(tmp_path / "traces" /
                                                        "ngram.model").support)


def test_ingest_counts_no_empty_element(tmp_path):
    out = tmp_path / "out"
    assert run(["--config", _write_config(tmp_path, corpus=str(DATA / "traces.mrg")),
                "--out", str(out), "ingest"]) == 0
    words = [line.split("\t")[0]
             for line in (out / "lexicon.tsv").read_text().splitlines()[2:]]
    assert not {"*", "*-1", "0"} & set(words)
    assert "\napproved\t1\tVBN:1\t0\t0\t0\t1\n" in (out / "lexicon.tsv").read_text()


def test_dependency_sidecar_indexes_surface_tokens(tmp_path):
    # The second tree opens with (NP-SBJ (-NONE- *)): "Buy" is token 1 and
    # "shares", its object, is token 2.
    sidecar = tmp_path / "deps.tsv"
    sidecar.write_text("2\t2\t1\tobj\n")
    out = tmp_path / "out"
    config = _write_config(tmp_path, corpus=str(DATA / "traces.mrg"),
                           dependencies=str(sidecar))
    assert run(["--config", config, "--out", str(out), "ingest"]) == 0
    buy = corpus.read_lexicon(out / "lexicon.tsv").stats("Buy")
    assert (buy.obj_present, buy.obj_absent) == (1, 0)


# ---------------------------------------------------------------------------
# Interrupted writes


def test_interrupted_ingest_leaves_no_partial_lexicon(tmp_path, capsys,
                                                      monkeypatch):
    out = tmp_path / "out"
    base = ["--config", _toy_config(tmp_path), "--out", str(out)]
    row = corpus._lexicon_row
    rows_written = []

    def cut_at_row_50(word, stats):
        rows_written.append(word)
        if len(rows_written) == 50:
            raise KeyboardInterrupt
        return row(word, stats)

    monkeypatch.setattr(corpus, "_lexicon_row", cut_at_row_50)
    with pytest.raises(KeyboardInterrupt):
        run(base + ["ingest"])
    assert not (out / "lexicon.tsv").exists()
    assert list(tmp_path.rglob("*.tmp")) == []
    assert run(base + ["stats"]) == 2
    assert ("error:usage-error: missing upstream artifact"
            in capsys.readouterr().err)

    # A complete lexicon from an earlier run outlives an interrupted rewrite.
    monkeypatch.setattr(corpus, "_lexicon_row", row)
    assert run(base + ["ingest"]) == 0
    whole = (out / "lexicon.tsv").read_bytes()
    assert whole.count(b"\n") > 50
    monkeypatch.setattr(corpus, "_lexicon_row", cut_at_row_50)
    rows_written.clear()
    with pytest.raises(KeyboardInterrupt):
        run(base + ["ingest"])
    assert (out / "lexicon.tsv").read_bytes() == whole
    assert list(tmp_path.rglob("*.tmp")) == []


def _interrupted_call(function, n):
    """``function``, except that its ``n``-th call raises KeyboardInterrupt."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == n:
            raise KeyboardInterrupt
        return function(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("stage", ["stats", "eval", "analyze", "report"])
def test_interrupted_stage_lands_none_of_its_outputs(toy_run, tmp_path, monkeypatch,
                                                      stage):
    # The earlier run's outputs come from other inputs, so a file of the
    # interrupted run that landed would differ from them.
    from syntaxprobe import analysis
    config, made, _ = toy_run
    out = tmp_path / "out"
    shutil.copytree(made, out)
    base = ["--config", config, "--out", str(out)]
    suite_files = sorted(map(str, (out / "suites").glob("*.suite")))
    surps = [str(out / "surprisals" / f"{pathlib.Path(p).stem}.ngram5.surp")
             for p in suite_files]
    items = sorted(map(str, (out / "eval").glob("*.items.csv")))
    evals = sorted(map(str, (out / "eval").glob("*.eval.csv")))
    mini = tmp_path / "mini"
    assert run(["--config", _write_config(tmp_path), "--out", str(mini), "ingest"]) == 0
    earlier, again, (module, name, n) = {
        "stats": (["stats", "--lexicon", str(mini / "lexicon.tsv")], ["stats"],
                  (corpus, "vbn_fraction", 1)),
        "eval": ([], ["--config", _toy_config(tmp_path, eps_tie="0.5"), "eval",
                      "--suite-file", *suite_files, "--surprisal-file", *surps,
                      "--model-name", "ngram5"],
                 (scoring, "evaluate_suite", 2)),
        "analyze": (["analyze", "--items", *items[:2]], ["analyze", "--items", *items],
                    (analysis, "curve_rows", 1)),
        "report": (["report", "--eval", *evals[:2]], ["report", "--eval", *evals],
                   (analysis, "write_text", 1)),
    }[stage]
    if earlier:
        assert run(base + earlier) == 0
    before = _files(out)
    monkeypatch.setattr(module, name, _interrupted_call(getattr(module, name), n))
    with pytest.raises(KeyboardInterrupt):
        run(base + again)
    assert list(tmp_path.rglob("*.tmp")) == []
    assert _files(out) == before


def test_library_writer_creates_its_parent_directory(tmp_path):
    path = tmp_path / "new" / "dir" / "table.csv"
    scoring.write_csv(path, ["a", "b"], [[1, 2]])
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert os.listdir(path.parent) == ["table.csv"]
