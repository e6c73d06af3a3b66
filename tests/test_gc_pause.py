"""The cyclic collector pause around each CLI stage and each beam search.

``errors.gc_paused`` must hand the collector back as it found it, and the
pause is only safe while a stage or a search builds no reference cycles
whose number grows with its input: those would pile up until the stage ends.
"""

import gc
import random

import pytest

from syntaxprobe import beamsearch, cli, toydata
from syntaxprobe.errors import DeadBeamError, gc_paused

from conftest import random_pcfg, sample_sentence


@pytest.fixture
def collector_enabled():
    """Start with the collector on; restore it whatever the test did."""
    gc.enable()
    yield
    gc.enable()


def test_enabled_collector_is_enabled_again_after_the_block(collector_enabled):
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_enabled_collector_is_enabled_again_after_an_exception(
        collector_enabled):
    with pytest.raises(KeyError):
        with gc_paused():
            assert not gc.isenabled()
            raise KeyError("x")
    assert gc.isenabled()


def test_nested_blocks_restore_the_outer_setting(collector_enabled):
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the outer block still holds the pause
    assert gc.isenabled()


def test_collector_the_caller_disabled_stays_disabled(collector_enabled):
    gc.disable()
    with gc_paused():
        pass
    assert not gc.isenabled()
    with gc_paused():
        with gc_paused():
            pass
        assert not gc.isenabled()
    assert not gc.isenabled()
    with pytest.raises(KeyError):
        with gc_paused():
            raise KeyError("x")
    assert not gc.isenabled()


def test_failed_stage_leaves_the_collector_enabled(collector_enabled, tmp_path,
                                                   capsys):
    bad = tmp_path / "bad.mrg"
    bad.write_text("(S (NN dog)\n")
    config = tmp_path / "probe.cfg"
    config.write_text(f"[syntaxprobe]\ncorpus = {bad}\n")
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"),
                     "ingest"]) == 1
    assert capsys.readouterr().err.startswith("error:parse-error:")
    assert gc.isenabled()


def test_dead_beam_leaves_the_collector_enabled(collector_enabled):
    model = beamsearch.PCFGActionModel(beamsearch.parse_grammar("1.0 S -> a\n"))
    with pytest.raises(DeadBeamError):
        beamsearch.word_sync_beam(model, ["b"])
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# The invariant the pause relies on: no cyclic garbage that grows with input.


def _stage_garbage(tmp_path, name, corpus):
    """Objects gc.collect() finds after ingest and train-ngram ran with the
    collector paused."""
    config = tmp_path / f"{name}.cfg"
    config.write_text(f"[syntaxprobe]\ncorpus = {corpus}\nlowercase = true\n")
    argv = ["--config", str(config), "--out", str(tmp_path / name)]
    gc.collect()
    with gc_paused():
        for stage in ("ingest", "train-ngram"):
            assert cli.main(argv + [stage]) == 0
        return gc.collect()


@pytest.mark.filterwarnings("ignore:order .* discount:UserWarning")
def test_stage_cyclic_garbage_does_not_grow_with_the_treebank(tmp_path, capsys):
    toy = toydata.toy_treebank_path()
    _stage_garbage(tmp_path, "warm", toy)  # first imports and caches
    once = _stage_garbage(tmp_path, "once", toy)
    thrice = _stage_garbage(tmp_path, "thrice", f"{toy},{toy},{toy}")
    assert "ingest: 8538 trees" in capsys.readouterr().out
    assert thrice == once


def test_beam_search_leaves_no_cyclic_garbage():
    cases = []
    for seed in range(6):
        grammar = random_pcfg(seed)
        cases.append((beamsearch.PCFGActionModel(grammar),
                      sample_sentence(grammar, random.Random(1000 + seed))))
    gc.collect()
    with gc_paused():
        for model, sentence in cases:
            for k in (10, 100):
                beamsearch.word_sync_beam(model, sentence, word_beam_k=k)
        assert gc.collect() == 0
