"""The modified Kneser-Ney 5-gram baseline and its failure mode.

Trains the baseline on the toy treebank's terminal strings, shows
per-token surprisals, and demonstrates the locality ceiling: when the two
conditions of an item differ only outside the model's context window, the
critical region gets identical surprisal in both and the tie-as-failure
rule scores the item 0.
"""

import warnings

from syntaxprobe import corpus, ngram, toydata

warnings.filterwarnings("ignore")  # tiny corpora trip the discount fallbacks

trees = corpus.read_treebank(toydata.toy_treebank_path())
sentences = [[w for w, _ in t.terminals()] for t in trees]
model = ngram.train(sentences, order=5)
print(f"5-gram model over {len(model.support)} types")
print("per-order discounts (D1, D2, D3+):")
for k, d in enumerate(model.discounts, start=1):
    print(f"  order {k}: ({d[0]:.3f}, {d[1]:.3f}, {d[2]:.3f})")

sent = ["The", "president", "is", "good", "today", "."]
print(f"\nsurprisals for {' '.join(sent)!r}:")
for token, bits in zip(sent, model.surprisals(sent)):
    print(f"  {token:10s} {bits:6.3f} bits")

# Agreement through the local window: the model prefers the attested copula.
print("\np(is | The president) vs p(are | The president):")
print(f"  {model.prob(('The', 'president'), 'is'):.4f}"
      f"  vs  {model.prob(('The', 'president'), 'are'):.4f}")

# The polar-question modifier pushes the auxiliary six tokens away from the
# noun; a 5-gram sees identical context either way, so the region ties.
gram = ["Are", "the", "very", "big", "and", "important", "hearings", "good", "?"]
ungram = ["Is"] + gram[1:]
s_gram = model.surprisals(gram)[6]
s_ungram = model.surprisals(ungram)[6]
print(f"\nregion surprisal at 'hearings': grammatical {s_gram:.6f}, "
      f"ungrammatical {s_ungram:.6f} -> tie, scored as a failure")

held_out = sentences[1::7]
print(f"\nperplexity on {len(held_out)} held-in sentences: "
      f"{model.perplexity(held_out):.3f}")
