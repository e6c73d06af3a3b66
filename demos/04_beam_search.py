"""Word-synchronous beam search over a generative parsing model.

A small PCFG stands in for a neural joint parse+word model: its action
scores (open nonterminal, generate word, reduce) are exact, and a word beam
of 100 holds every live state of its sentence, so the search's marginals
are exact there.  A narrower beam can only lose mass.  The same search also
runs against an out-of-process scorer speaking the line protocol.
"""

import math
import sys

from syntaxprobe import beamsearch as bs

GRAMMAR = """
1.0 S -> NP VP
0.6 NP -> D N
0.4 NP -> NX
1.0 NX -> D N
1.0 VP -> V
1.0 D -> the
1.0 N -> dog
1.0 V -> barks
"""

grammar = bs.parse_grammar(GRAMMAR)
model = bs.PCFGActionModel(grammar)
sentence = ["the", "dog", "barks"]

result = bs.word_sync_beam(model, sentence, word_beam_k=100)
print("prefix marginals (log2):")
for word, marginal, surprisal in zip(sentence, result.marginals,
                                     result.surprisals):
    print(f"  {word:8s} marginal {marginal:8.4f}  surprisal {surprisal:.4f} bits")
print("top parse:", result.top_parse,
      f"(p = {2**result.top_parse_logprob:.2f})")
print(f"sentence probability, both parses: {2**result.complete_logprob:.2f}")

# The grammar's two parses of the sentence both fit a word beam of 100, so
# those marginals are exact; a word beam of 1 keeps a single hypothesis
# and can only lose mass.
narrow = bs.word_sync_beam(model, sentence, word_beam_k=1, fast_track_k=1)
print("\nword_beam_k=1   marginals:", [round(m, 4) for m in narrow.marginals])
print("word_beam_k=100 marginals:", [round(m, 4) for m in result.marginals])

# The same search through the subprocess protocol.
import tempfile, os
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.pcfg")
    bs.write_grammar(grammar, path)
    argv = [sys.executable, "-m", "syntaxprobe.pcfg_scorer", path]
    with bs.SubprocessActionModel(argv) as remote:
        via_remote = bs.word_sync_beam(remote, sentence, word_beam_k=100)
print("\nsubprocess scorer agrees:",
      all(abs(a - b) < 1e-12
          for a, b in zip(result.marginals, via_remote.marginals)))
