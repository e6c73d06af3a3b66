"""The full pipeline through the command line, end to end.

Runs ingest -> stats -> gen -> train-ngram -> score -> eval -> analyze ->
report against the bundled treebank in a temporary directory and prints
the report grid.  Every artifact is a plain text file; rerunning with the
same seed reproduces all of them byte for byte.
"""

import pathlib
import tempfile

from syntaxprobe import cli, toydata

SUITES = ("number_base", "number_polar_mod", "argstruct_passive")

with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    config = tmp / "probe.cfg"
    config.write_text(
        "[syntaxprobe]\n"
        f"corpus = {toydata.toy_treebank_path()}\n"
        "lowercase = true\n"
        "seed = 13\n"
        "words_per_category = 2\n"
        "frames_per_word = 20\n"
    )
    out = tmp / "out"
    base = ["--config", str(config), "--out", str(out)]

    steps = [["ingest"], ["stats"]]
    steps += [["gen", "--suite", s] for s in SUITES]
    steps += [["train-ngram"]]
    # One score call and one eval call cover every suite: the model is
    # loaded once, and eval pairs suite and surprisal files by position.
    suite_files = [str(out / "suites" / f"{s}.suite") for s in SUITES]
    steps.append(["score", "--suite-file"] + suite_files +
                 ["--model-name", "ngram5"])
    steps.append(["eval", "--suite-file"] + suite_files + ["--surprisal-file"] +
                 [str(out / "surprisals" / f"{s}.ngram5.surp") for s in SUITES] +
                 ["--model-name", "ngram5"])
    steps.append(["analyze", "--items"] +
                 [str(out / "eval" / f"{s}.ngram5.items.csv") for s in SUITES])
    steps.append(["report", "--eval"] +
                 [str(out / "eval" / f"{s}.ngram5.eval.csv") for s in SUITES])

    for step in steps:
        assert cli.main(base + step) == 0, step

    print("\nreport grid (buckets significantly above chance):\n")
    print((out / "report" / "table.txt").read_text())
    print("artifacts under", out.name + ":")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print("  ", path.relative_to(out))
