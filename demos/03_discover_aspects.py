"""Recovering an aspect taxonomy from raw comments with LDA.

Synthetic comments each lean on one planted word bank.  Collapsed Gibbs
sampling over the stopword-filtered tokens recovers those banks as
topics; UMass coherence picks the topic count and names fall out of the
top words.
"""

import numpy as np

from storyeval.aspects import (
    AspectTaxonomy,
    lda_fit,
    prepare_comment_docs,
    select_num_topics,
    umass_coherence,
)
from storyeval.synthetic import (
    ASPECT_BANKS,
    FLAT_BANK,
    GOOD_BANK,
    make_aspect_comments,
    make_preference_corpus,
)


def main():
    stories = make_preference_corpus(n_prompts=150, seed=1)
    comments = make_aspect_comments(stories, seed=1)
    print(f"{len(comments)} comments from {len(stories)} stories")

    # evaluative words carry sentiment, not topic; treat them like
    # stopwords so co-occurrence reflects what the comment is about
    evaluative = set(GOOD_BANK) | set(FLAT_BANK) | {"felt", "overall"}
    docs, vocab = prepare_comment_docs([c.text for c in comments],
                                       min_count=2, extra_stopwords=evaluative)
    print(f"{len(docs)} documents over a {len(vocab)}-word vocabulary")

    # the filtered comments are two tokens long, so judge coherence on
    # each topic's top two words rather than the default ten
    candidates = (5, 10, 15)
    best = select_num_topics(docs, vocab, candidates, seed=0, iterations=150,
                             top_n=2).n_topics
    print(f"coherence picks {best} topics from {candidates} "
          f"(the corpus plants {len(ASPECT_BANKS)})")

    model = lda_fit(docs, vocab, n_topics=best, iterations=300, seed=0)
    print(f"UMass coherence: {umass_coherence(model, docs, top_n=2):.2f}\n")

    top = model.top_words(n=4)
    names = ["/".join(ws[:2]) for ws in top]
    for t, ws in enumerate(top):
        print(f"  topic {t}: {' '.join(ws)}")

    # purity: fraction of comments whose dominant topic is also the
    # dominant topic of their true bank
    assign = np.argmax(model.doc_topic, axis=1)
    true = np.asarray([c.aspect for c in comments])
    label_of = {}
    for k in set(true.tolist()):
        topics, counts = np.unique(assign[true == k], return_counts=True)
        label_of[k] = int(topics[np.argmax(counts)])
    purity = float(np.mean([assign[i] == label_of[true[i]]
                            for i in range(len(true))]))
    print(f"\ncluster purity against the planted banks: {purity:.3f}")

    taxonomy = AspectTaxonomy(names=names, groups=["discovered"] * best)
    print(f"taxonomy of {len(taxonomy.names)} aspects, e.g. '{taxonomy.names[0]}'")


if __name__ == "__main__":
    main()
